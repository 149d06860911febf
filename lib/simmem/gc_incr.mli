(** Incremental (on-the-fly style) mark-sweep collector.

    The paper's Section 6 discusses the Dijkstra-lineage "on-the-fly"
    collectors as the alternative to stop-the-world tracing; this module
    is that alternative for the simulated heap, so experiment E8 can
    compare three reclamation regimes on one substrate: stop-the-world
    ({!Gc_trace}), pay-as-you-go counts (LFRC itself), and incremental
    tracing.

    Classic tri-color scheme with a snapshot-at-the-beginning write
    barrier: a cycle shades the roots gray, mutator writes that overwrite
    a pointer shade the overwritten value ({!barrier}), objects allocated
    during a cycle are born black ({!on_alloc}), and {!step} advances
    marking/sweeping by a bounded budget — the pause is the slice, never
    the heap.

    The mutator obligations (barrier on every overwritten pointer,
    on_alloc on every allocation) are discharged by {!Lfrc_core.Gc_ops}
    when a collector is attached to its environment. Correctness is
    SATB's: everything reachable when the cycle started gets marked, so
    only objects that were garbage at the snapshot are swept. *)

type t

val create : ?threshold:int -> Heap.t -> t
(** [threshold] (default 1024): live-object count that makes {!poll}
    start a new cycle. *)

val heap : t -> Heap.t

type phase = Idle | Marking | Sweeping

val phase : t -> phase

val start_cycle : t -> unit
(** Begin a cycle now (no-op if one is running): snapshot the roots and
    registered frames as gray. *)

val barrier : t -> Heap.ptr -> unit
(** SATB write barrier: call with the pointer value being overwritten,
    before or after the write. No-op outside marking. *)

val on_alloc : t -> Heap.ptr -> unit
(** Newly allocated objects are black during a cycle. *)

val step : t -> budget:int -> bool
(** Advance the cycle by up to [budget] units (one unit: scan one gray
    object, or examine 4 objects while sweeping). Returns
    true if the cycle completed in this call. No-op (false) when idle. *)

val poll : t -> budget:int -> unit
(** The per-operation hook: start a cycle if the heap has grown past the
    threshold, and advance any running cycle by [budget]. *)

val finish_cycle : t -> unit
(** Drive a running cycle to completion (unbounded steps). *)

type stats = { cycles : int; freed : int; max_live_marked : int }

val stats : t -> stats
