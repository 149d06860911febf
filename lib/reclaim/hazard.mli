(** Hazard pointers (Michael, 2002-style), built from scratch over the
    simulated heap.

    A modern point of comparison for LFRC (experiment E4): instead of
    per-object counts updated by DCAS, each thread publishes the (few)
    pointers it is actively using in single-writer hazard slots; a freed
    object is only returned to the allocator once no slot mentions it.
    CAS-free on the read side, but reclamation is deferred — the retired
    list is bounded garbage that LFRC never accumulates. *)

type t

type slot

val create : ?slots:int -> ?scan_threshold:int ->
  ?metrics:Lfrc_obs.Metrics.t -> ?lineage:Lfrc_obs.Lineage.t ->
  Lfrc_simmem.Heap.t -> t
(** Each thread slot holds 2 hazard pointers. Defaults: 64 thread
    slots, scan at 64 retired objects. [metrics] (default disabled)
    receives the [hazard.*] series: retires, scans, freed counts and the
    retired-list depth gauge.
    [lineage] (default disabled) records a [Retire] event per retired
    object, so the forensic timelines cover the deferred span between
    unlink and free. *)

val register : t -> slot
val unregister : t -> slot -> unit
(** Flushes the slot's retired list (parking still-protected objects on
    the orphan list for later scans) and frees the slot. *)

val protect : t -> slot -> idx:int -> Lfrc_simmem.Cell.t -> Lfrc_simmem.Heap.ptr
(** [protect t s ~idx cell] reads the pointer in [cell], publishes it in
    hazard [idx], and re-validates the cell until the published value is
    stable — after which the object cannot be freed until the hazard is
    cleared. Returns the protected pointer (possibly null). *)

val clear : t -> slot -> unit
(** Null all hazards of the slot. *)

val retire : t -> slot -> Lfrc_simmem.Heap.ptr -> unit
(** The object was unlinked; free it once no hazard protects it. *)

val adopt : t -> crashed:int list -> int
(** Crash recovery: evict the slots registered by the given (crashed)
    simulated threads — null their published hazards (a crashed thread is
    parked at a yield point, never mid-dereference), orphan their retired
    lists and rescan, so a dead thread neither pins garbage nor strands
    its own. Counted under the [lfrc.hazard_evict] metric. Returns the
    number of slots evicted. *)

type stats = { freed : int; max_retired : int }

val stats : t -> stats
(** [max_retired] is the high-water mark of unreclaimed garbage across all
    slots — the bounded-garbage metric reported by experiment E4. *)
