(** LFRC-San: a TSan-style shadow memory over the simulated heap.

    The sanitizer mirrors every {!Lfrc_simmem.Cell} touched through the
    atomics substrate with shadow state — vector clocks for plain-access
    race detection, per-object liveness epochs for use-after-free /
    use-after-retire against the LFRC discipline, and per-slot version
    counters for ABA occurrences — and checks each access {e at the moment
    it happens}, under the deterministic scheduler. Findings are collected
    (never raised), deduplicated by (class, cell, racing sites), and carry
    enough context (thread names, scheduler steps, profiler call sites) to
    serve as replayable witnesses.

    Classification per cell, bound from heap allocation events:
    - {b rc cells} are type-stable (the paper's Figure 2 load must be able
      to address the rc of a concurrently-freed object), so they are
      exempt from liveness checks and synchronize like atomics.
    - {b pointer cells} (and heap roots) are atomics: reads acquire the
      cell's sync clock, writes and successful CAS/DCAS release into it,
      failed CAS still acquires (it observed the value). Value-changing
      updates bump the slot's ABA version.
    - {b value cells} are plain data: reads and writes through
      [read_val]/[write_val] are race-checked FastTrack-style against the
      last plain write and the per-thread plain reads; [cas_val]
      synchronizes like an atomic and is not treated as a plain access.

    The disabled singleton makes every hook a single branch, preserving the
    substrate's sanitizer-off cost. The sanitizer assumes the
    deterministic single-domain scheduler ([Atomic_step] substrate); it
    performs no locking of its own. *)

module Cell := Lfrc_simmem.Cell
module Heap := Lfrc_simmem.Heap

type t

type kind = Race | Use_after_free | Use_after_retire | Aba

val kind_name : kind -> string
(** ["race"] / ["use-after-free"] / ["use-after-retire"] / ["aba"]. *)

type access = {
  a_tid : int;
  a_thread : string;  (** scheduler thread name at the access *)
  a_site : string;  (** innermost profiler frame, or ["?"] unprofiled *)
  a_step : int;  (** [Sched.steps_so_far] at the access *)
}

type finding = {
  f_kind : kind;
  f_cell : int;  (** cell id *)
  f_slot : string;  (** e.g. ["val[0]"], ["ptr[1]"], ["root"] *)
  f_addr : Heap.ptr;
      (** the object the finding is about: the accessed cell's owner —
          except for ABA on a root slot, where it is the recycled object
          behind the stale value (roots have no owner); 0 when neither
          applies *)
  f_gen : int;  (** that object's incarnation when the finding fired *)
  f_access : access;  (** the access that tripped the check *)
  f_prev : access option;  (** the conflicting earlier access, when known *)
  f_count : int;  (** occurrences folded into this deduplicated finding *)
  f_message : string;
}

type totals = {
  checks : int;  (** accesses inspected *)
  races : int;
  uaf : int;
  uar : int;
  aba : int;  (** all ABA occurrences, benign included *)
  aba_harmful : int;  (** the old value's object was recycled in between *)
}

val create : unit -> t
(** A fresh enabled sanitizer. Bind it to an environment's heap and
    observability with {!attach} (done by [Env.create ~sanitize]). *)

val disabled : t
val enabled : t -> bool

val attach :
  t ->
  heap:Heap.t ->
  metrics:Lfrc_obs.Metrics.t ->
  tracer:Lfrc_obs.Tracer.t ->
  profile:Lfrc_obs.Profile.t ->
  unit
(** Bind the heap (for generation queries and cell classification) and the
    observability sinks: every finding class lands in [san.*] counters and
    emits an [Instant] tracer event; ABA occurrences are attributed to the
    profiler's innermost call-site label. *)

(** {2 Lifecycle hooks} (wired by [Env.create ~sanitize]) *)

val on_heap_event : t -> Heap.obs_event -> unit
(** Classify/bind an object's cells on [Obs_alloc] (resetting their shadow
    plain-access state — recycling), mark it dead on [Obs_free]. *)

val note_dying : t -> Heap.ptr -> unit
(** The calling thread observed this object's count reach zero and now owns
    its destruction: accesses to its pointer/value cells by {e other}
    threads before the free are use-after-retire. *)

(** {2 Access hooks} (called by the DCAS substrate's observer,
    {!Lfrc_core.Env.observe_dcas}; one branch when disabled) *)

val on_read : t -> Cell.t -> int -> unit
(** [on_read t c v]: [v] is the value read (recorded for ABA). *)

val on_write : t -> Cell.t -> int -> unit

val on_rmw : t -> Cell.t -> unit
(** Atomic read-modify-write ([fetch_add]): acquire + release. *)

val on_cas : t -> Cell.t -> old_v:int -> new_v:int -> ok:bool -> unit

val on_dcas :
  t ->
  Cell.t ->
  Cell.t ->
  old0:int ->
  old1:int ->
  new0:int ->
  new1:int ->
  ok:bool ->
  unit

(** {2 Results} *)

val findings : t -> finding list
(** Deduplicated findings in first-occurrence order. Harmful ABA, races and
    liveness violations only — benign ABA occurrences are counted
    ({!totals}, {!aba_by_site}) but are not findings. *)

val totals : t -> totals

val aba_by_site : t -> (string * int) list
(** ABA occurrences per profiler call-site label, most first. *)

val pp_finding : Format.formatter -> finding -> unit
