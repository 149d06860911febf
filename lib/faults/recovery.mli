(** Crash recovery: adopt the orphaned state of permanently failed
    threads so a chaos run ends leak-{e free}, not merely leak-bounded.

    The paper's footnote 3 concedes that a thread failing permanently may
    leak whatever it referenced. The audit ({!Audit}) holds every such
    leak {e accountable} — reachable from a recorded lost reference.
    This pass goes further and {e adopts} each lost reference, running
    post-run (outside the simulation, single-threaded) over the
    environment's crash-safe registries:

    + the count-delivery mode adopts its own tables
      ({!Lfrc_core.Env.adopt}): deferred-rc re-parks a crashed flusher's
      staged count deltas and clears the flush flag, weighted mode merges
      the dead threads' weight pouches into the adopter's;
    + in-flight MCAS descriptors in the dead threads' pool slots are
      helped to a decision ({!Lfrc_atomics.Mcas.adopt_slot}) — a DCAS is
      never left half-applied;
    + reclamation hooks evict the dead threads' epoch pins and hazard
      slots ({!Lfrc_core.Env.run_recovery_hooks}), so limbo lists drain
      again;
    + committed-but-unfinished drops (destroy registry), uncompensated
      speculative publication increments, and registered local-frame
      guards are each released through the normal destroy path;
    + a final settle ({!Lfrc_core.Env.settle}) lands every parked delta
      and cascades the resulting destroys.

    Every adoption is a {e decrement}: objects free only when their
    count reaches zero, so adoption can never double-free, and the order
    among crashed owners is immaterial. Each adopted reference records an
    {!Lfrc_obs.Lineage.kind.Adopt} event naming the crashed owner.

    Metrics: [lfrc.adopt_rc] (count deltas settled + drops completed +
    publications compensated), [lfrc.adopt_guard] (local-frame references
    released), [lfrc.adopt_descriptor] (MCAS descriptors helped);
    [lfrc.epoch_evict] / [lfrc.hazard_evict] are recorded by the
    reclamation schemes' own adopt passes.

    Known limit: under [Software_mcas] the LFRC count protocol itself
    runs through descriptor-mediated DCAS whose transient states recovery
    does not decode, so only descriptor completion is performed there —
    strict zero-leak recovery is asserted for the [Atomic_step] DCAS
    model (see DESIGN.md §13). *)

type report = {
  crashed : int list;  (** the dead threads recovery ran for *)
  rc_settled : int;
      (** count-delivery table entries settled ({!Lfrc_core.Env.adopt}):
          the dead threads' parked buffers plus a crashed flusher's
          re-parked staging table, or their merged weight pouches *)
  destroys_completed : int;
      (** destroy-registry entries adopted: committed drops performed,
          mid-teardown husks finished *)
  publications_compensated : int;
      (** speculative publication increments destroyed *)
  guards_released : int;  (** local-frame references released *)
  descriptors_helped : int;  (** MCAS descriptors helped to a decision *)
  epochs_evicted : int;
      (** epoch pins / hazard slots evicted by reclamation hooks *)
  freed : int;  (** net objects freed by the whole pass *)
}

val run : Lfrc_core.Env.t -> crashed:int list -> report
(** Run the full adoption pass for the given crashed thread ids. Must be
    called after the simulated run has ended (it walks shared registries
    without yielding) and at most once per run — the registries it
    drains are surrendered destructively. Safe no-op when [crashed] is
    empty and the flush flag is clear. *)

val total : report -> int
(** Sum of all adoption actions — zero means recovery had nothing to do. *)

val pp : Format.formatter -> report -> unit
