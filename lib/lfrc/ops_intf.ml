(** The pointer-operation interface — the paper's "LFRC Compliance"
    criterion (Section 2.1) made into a module type, split by primitive
    tier.

    A data-structure implementation that manipulates pointers *only*
    through these operations can be written once, as a functor over the
    operation signature, and instantiated both in a garbage-collected
    environment ({!Gc_ops}) and in a manual-memory environment
    ({!Lfrc_ops}). Applying the paper's transformation methodology
    (Section 3, Table 1) is then literally the act of changing the functor
    argument — the type checker enforces that no pointer is touched
    outside the sanctioned operation set (no pointer arithmetic, no raw
    loads).

    The signature comes in two tiers, mirroring the catalog's
    {!Lfrc_structures.Catalog.tier}:

    - {!OPS_CAS} — single-word primitives only: loads, stores, copies,
      CAS, allocation, flush, and the value-slot accessors. A structure
      written as a functor over [OPS_CAS] (e.g. the Sundell–Tsigas deque)
      provably never issues a DCAS: the operation simply is not in its
      vocabulary, so the claim "CAS-only" is discharged by the type
      checker rather than by inspection.
    - {!OPS_DCAS} — everything in [OPS_CAS] plus the two double-word
      operations ([dcas], [dcas_ptr_val]) the paper's Snark requires.

    Both real implementations ({!Gc_ops}, {!Lfrc_ops}) and the analyzer's
    recording instance satisfy [OPS_DCAS], and therefore — by first-class-
    module width subtyping — can be passed wherever an [OPS_CAS] is
    expected.

    Thread-local pointer variables are abstract ([local]) so that the
    GC-dependent implementation can register them as roots with the
    tracing collector (playing the role of stack scanning) and the LFRC
    implementation can count them. *)

(** Single-word tier: every pointer operation expressible with loads,
    stores and one-word CAS. *)
module type OPS_CAS = sig
  val name : string

  type ctx
  (** Per-thread context. Create one per (simulated or real) thread. *)

  val make_ctx : Env.t -> ctx
  val dispose_ctx : ctx -> unit
  val env : ctx -> Env.t

  type local
  (** A thread-local pointer variable, initialized to null. *)

  val declare : ctx -> local
  val retire : ctx -> local -> unit
  (** The variable is dead (paper step 6: call LFRCDestroy on locals going
      out of scope). *)

  val get : local -> Lfrc_simmem.Heap.ptr
  (** Read the local variable for comparisons and as an operand. The
      returned id must not outlive the variable. *)

  (* Pointer operations: Table 1's left column, minus the DCAS rows. *)

  val load : ctx -> Lfrc_simmem.Cell.t -> local -> unit
  (** [x0 = *A0] *)

  val store : ctx -> Lfrc_simmem.Cell.t -> Lfrc_simmem.Heap.ptr -> unit
  (** [*A0 = x0] *)

  val store_alloc : ctx -> Lfrc_simmem.Cell.t -> local -> unit
  (** Store a just-allocated object, transferring the allocation
      reference; clears the local. *)

  val copy : ctx -> local -> Lfrc_simmem.Heap.ptr -> unit
  (** [x0 = x1] *)

  val set_null : ctx -> local -> unit

  val cas :
    ctx ->
    Lfrc_simmem.Cell.t ->
    old_ptr:Lfrc_simmem.Heap.ptr ->
    new_ptr:Lfrc_simmem.Heap.ptr ->
    bool

  val alloc : ctx -> Lfrc_simmem.Layout.t -> local -> unit
  (** [x0 = new T]: allocate into a local (destroying its previous
      content). In GC-dependent mode allocation may trigger a tracing
      collection first. *)

  val try_alloc : ctx -> Lfrc_simmem.Layout.t -> local -> bool
  (** Like {!alloc} but fallible: on a simulated allocator failure
      ({!Lfrc_simmem.Heap.Simulated_oom}) returns [false] with the local —
      and every reference count — untouched, so the enclosing structure
      operation can report out-of-memory instead of dying mid-update. *)

  val flush : ctx -> unit
  (** Settle deferred bookkeeping at a structure-chosen quiescent point:
      under LFRC this applies parked deferred-rc deltas and drains the
      deferred-destroy queue ({!Lfrc.flush}); under GC it polls the
      incremental collector. Never required for correctness — every
      implementation also flushes at its own forced points (epoch
      overflow, context disposal, crash audits) — but a structure may call
      it to bound how much bookkeeping a later operation inherits. *)

  (* Value-slot access (not pointer operations; always permitted). *)

  val read_val : ctx -> Lfrc_simmem.Cell.t -> int
  val write_val : ctx -> Lfrc_simmem.Cell.t -> int -> unit
  val cas_val : ctx -> Lfrc_simmem.Cell.t -> int -> int -> bool
end

(** Double-word tier: the single-word tier plus the paper's DCAS
    operations. *)
module type OPS_DCAS = sig
  include OPS_CAS

  val dcas :
    ctx ->
    Lfrc_simmem.Cell.t ->
    Lfrc_simmem.Cell.t ->
    old0:Lfrc_simmem.Heap.ptr ->
    old1:Lfrc_simmem.Heap.ptr ->
    new0:Lfrc_simmem.Heap.ptr ->
    new1:Lfrc_simmem.Heap.ptr ->
    bool

  val dcas_ptr_val :
    ctx ->
    ptr_cell:Lfrc_simmem.Cell.t ->
    val_cell:Lfrc_simmem.Cell.t ->
    old_ptr:Lfrc_simmem.Heap.ptr ->
    new_ptr:Lfrc_simmem.Heap.ptr ->
    old_val:int ->
    new_val:int ->
    bool
  (** Mixed pointer/value DCAS (our documented extension of the paper's
      operation set; see {!Lfrc.dcas_ptr_val}). *)
end
