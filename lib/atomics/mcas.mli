(** Lock-free software multi-word CAS.

    This is a from-scratch implementation of the RDCSS-based MCAS of
    Harris, Fraser and Pratt ("A practical multi-word compare-and-swap
    operation", DISC 2002) — the general k-word operation, with the
    two-word specialization serving as a lock-free *software* DCAS, one
    of the two substrates offered for the paper's assumed hardware DCAS
    instruction (experiment E5 compares them).

    Descriptors are pooled per thread and recycled; helpers validate a
    sequence number embedded in the tagged word before trusting a
    descriptor's fields, so a stale helper can never act on a reused
    descriptor.

    Limitation (documented in DESIGN.md and demonstrated by a test):
    unlike hardware DCAS, MCAS *writes* a descriptor into each target cell
    before it knows the outcome. LFRC's load operation applies DCAS to
    the reference count of an object that may already be freed, counting
    on a failing hardware DCAS not to write; software MCAS would corrupt
    freed memory there. LFRC therefore runs over the atomic or
    striped-lock substrates, and this module serves the substrate-ablation
    benchmarks and the model checker. *)

val mcas : (Lfrc_simmem.Cell.t * int * int) array -> bool
(** [mcas [| (c, old, new); ... |]] atomically installs every [new] iff
    every cell holds its [old]. Cells must be pairwise distinct; at most
    16 entries (the per-thread descriptor pool budget). The empty array
    trivially succeeds. Lock-free: delayed threads are helped past. *)

val dcas :
  Lfrc_simmem.Cell.t ->
  Lfrc_simmem.Cell.t ->
  int ->
  int ->
  int ->
  int ->
  bool
(** Two-word specialization of {!mcas}. MCAS keeps no counters: a
    [Software_mcas] {!Dcas.dcas} step is counted by the substrate's
    observer, which {!Lfrc_core.Env.observe_dcas} turns into
    [mcas.attempt] and [mcas.success] / [mcas.fail]. *)

val read : Lfrc_simmem.Cell.t -> int
(** Read a cell that may be targeted by in-flight MCAS operations, helping
    any encountered descriptor to completion first. *)

val cas : Lfrc_simmem.Cell.t -> int -> int -> bool
(** Single-word CAS that cooperates with in-flight MCAS operations. *)

val adopt_slot : int -> int
(** [adopt_slot slot] helps whatever operations the slot's current
    descriptors describe to completion — completing or rolling back, never
    leaving a cell holding the descriptor reference. Crash recovery calls
    this with a dead thread's slot (its simulated thread id) so survivors
    are never stuck behind, and the auditor never reads through, an
    orphaned descriptor. Idempotent and safe on an idle slot; returns how
    many descriptors actually needed helping. *)

val max_entries : int
