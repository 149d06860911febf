(** Lock-free software DCAS.

    This is a from-scratch implementation of the RDCSS-based MCAS of
    Harris, Fraser and Pratt ("A practical multi-word compare-and-swap
    operation", DISC 2002), specialized to the two words the paper's DCAS
    names: a lock-free *software* DCAS, one of the two substrates offered
    for the paper's assumed hardware DCAS instruction (experiment E5
    compares them). A DCAS installs its descriptor in the lower cell id
    first.

    Descriptors are pooled, one per thread slot, and reused in place
    (Arbel-Raviv and Brown, "Reuse, don't Recycle"), so no operation
    allocates. A descriptor holds its two entries in mutable fields and
    one atomic state word, [seq lsl 2 lor status]; a reference to it
    carries the sequence number. The owner starts a new sequence number
    before it rewrites the entries, and helpers read the entries between
    two reads of the state word, trusting them only if the sequence
    number held. The status shares the word with the sequence number so
    that every status read and status CAS checks both at once: a helper
    delayed past the end of the operation it helped can neither fail nor
    win the descriptor's next operation.

    Limitation (documented in DESIGN.md and demonstrated by a test):
    unlike hardware DCAS, MCAS *writes* a descriptor into each target cell
    before it knows the outcome. LFRC's load operation applies DCAS to
    the reference count of an object that may already be freed, counting
    on a failing hardware DCAS not to write; software MCAS would corrupt
    freed memory there. LFRC therefore runs over the atomic or
    striped-lock substrates, and this module serves the substrate-ablation
    benchmarks and the model checker. *)

val dcas :
  Lfrc_simmem.Cell.t ->
  Lfrc_simmem.Cell.t ->
  int ->
  int ->
  int ->
  int ->
  bool
(** [dcas c0 c1 old0 old1 new0 new1] atomically writes [new0] to [c0]
    and [new1] to [c1] iff they hold [old0] and [old1]. The cells must be
    distinct ([Invalid_argument] otherwise). Lock-free: delayed threads
    are helped past. MCAS keeps no counters: a [Software_mcas]
    {!Dcas.dcas} step is counted by the substrate's observer, which
    {!Lfrc_core.Env.create} installs and which turns it into
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
