(** The LFRC operations — the paper's primary contribution (Figure 2).

    Each operation maintains the paper's *weak* reference-count invariant:
    an object's count is always at least the number of pointers to it
    (never freed prematurely), and reaches zero once no pointers remain
    (never leaked, cycles excepted). Counts are raised conservatively
    *before* a pointer is created and compensated if creation fails; the
    one step plain CAS cannot do safely — incrementing the count of an
    object the thread does not yet own — is done by DCAS on the source
    pointer and the count simultaneously ({!load}).

    Local pointer variables are [int ref]s holding object ids; they must be
    initialized to null ({!Heap.null}) before first use and destroyed with
    {!destroy} when they die (the paper's step 6). {!with_locals} automates
    that discipline.

    All operations are lock-free given a lock-free DCAS substrate: every
    internal loop re-runs only if a shared value changed, and whichever
    thread changed it completed an operation.

    Each operation below has one body. How a count adjustment reaches
    the heap — eager CAS loops, deferred-rc parking, or weighted
    fetch-adds — is the environment's count-delivery mode
    ({!Env.rc_mode}), an implementation of {!Env_base.DELIVERY} chosen
    once at {!Env.create}; the bodies call its hooks at fixed points (the
    load acquisition, the publication before a CAS and its resolution,
    each drop, each child claimed during a teardown). Under
    {!Env.Wait_free} the count path is stronger than lock-free: copy and
    destroy are single {!Lfrc_atomics.Dcas.fetch_add}s ([rc_retry] is
    exactly 0) and the Figure-2 DCAS survives only as {!load}'s fallback
    on a weight-exhausted slot (DESIGN.md §17). DESIGN.md "Count
    delivery" tabulates the hooks per mode. *)

type ptr = Lfrc_simmem.Heap.ptr

exception Symbolic_bypass of string
(** Raised (with the operation name) by every operation below when called
    on a symbolic analysis environment ({!Env.create} with
    [~symbolic:true]): structure code under static analysis must reach its
    pointer operations only through its {!Ops_intf.OPS} functor argument,
    and a direct {!Lfrc} call is itself a discipline violation the
    analyser reports. *)

val alloc : Env.t -> Lfrc_simmem.Layout.t -> ptr
(** New object with reference count 1 — the count for the reference this
    function returns (the paper's constructor, step 1). *)

val try_alloc :
  Env.t -> Lfrc_simmem.Layout.t -> (ptr, [ `Out_of_memory ]) result
(** Like {!alloc}, but turns a simulated allocator failure
    ({!Lfrc_simmem.Heap.Simulated_oom}) into [Error `Out_of_memory]. The
    failure is observed before any count or cell is touched, so the caller
    can abort its operation with all reference counts intact. *)

val load : Env.t -> src:Lfrc_simmem.Cell.t -> dest:ptr ref -> unit
(** [LFRCLoad(A, p)]: load the shared pointer at [src] into the local
    variable [dest], incrementing the target's count via DCAS on
    [(src, target.rc)] so the increment cannot hit freed memory; then
    destroy the pointer [dest] previously held. *)

val store : Env.t -> dst:Lfrc_simmem.Cell.t -> ptr -> unit
(** [LFRCStore(A, v)]: raise [v]'s count, then CAS-install [v] into [dst]
    (retrying on interference) and destroy the overwritten pointer. *)

val store_alloc : Env.t -> dst:Lfrc_simmem.Cell.t -> ptr -> unit
(** [LFRCStoreAlloc]: like {!store} but consumes the caller's counted
    reference to [v] instead of raising the count — the idiom for storing
    a just-allocated object (paper Figure 1, line 35). *)

val store_alloc_from : Env.t -> dst:Lfrc_simmem.Cell.t -> ptr ref -> unit
(** Crash-safe {!store_alloc}: takes the source as a (registered-local)
    ref and clears it in the same atomic step as the winning CAS, so the
    consumed count has exactly one owner — the local or the heap slot —
    at every scheduler yield point. Structure code via {!Lfrc_ops} uses
    this form. *)

val copy : Env.t -> dest:ptr ref -> ptr -> unit
(** [LFRCCopy(p, v)]: local-to-local assignment; raises [v]'s count,
    destroys the previous content of [dest]. *)

val destroy : Env.t -> ptr -> unit
(** [LFRCDestroy(v)]: account for the death of one pointer to [v]; frees
    the object (per the environment's destroy policy) when the count
    reaches zero, destroying its outgoing pointers in turn. *)

val cas :
  Env.t -> Lfrc_simmem.Cell.t -> old_ptr:ptr -> new_ptr:ptr -> bool
(** [LFRCCAS]: the single-location simplification of {!dcas}. *)

val dcas :
  Env.t ->
  Lfrc_simmem.Cell.t ->
  Lfrc_simmem.Cell.t ->
  old0:ptr ->
  old1:ptr ->
  new0:ptr ->
  new1:ptr ->
  bool
(** [LFRCDCAS]: raise the counts of both new values, attempt the DCAS,
    then destroy either the two replaced pointers (success) or compensate
    the two increments (failure). *)

val dcas_ptr_val :
  Env.t ->
  ptr_cell:Lfrc_simmem.Cell.t ->
  val_cell:Lfrc_simmem.Cell.t ->
  old_ptr:ptr ->
  new_ptr:ptr ->
  old_val:int ->
  new_val:int ->
  bool
(** Mixed DCAS on one pointer location and one plain value location;
    reference counting is applied to the pointer side only. Not in the
    paper's Figure 2, but constructed exactly as the paper's Section 2.1
    anticipates ("straightforward to extend our methodology to support
    other operations"); the corrected Snark deque's value-claiming pops
    need it. *)

val add_to_rc : Env.t -> ptr -> int -> int
(** CAS-loop adjustment of an object's count, returning the previous
    value. Safe only when the caller holds a counted reference (the
    paper's stated precondition). Exposed for tests and extensions. *)

val pump_deferred : Env.t -> budget:int -> int
(** Free up to [budget] objects from the deferred-destroy queue; returns
    how many were freed. No-op under other policies. *)

val flush : Env.t -> int
(** Settle all deferred work: land every count adjustment the mode holds
    back (deferred-rc's parked deltas, freeing the objects whose net
    count lands at zero — {!Env.settle}), then drain the deferred-destroy
    queue completely ([pump_deferred ~budget:(-1)]). Returns how many
    objects were freed. Surviving threads call this after a peer crashes
    so parked deltas and deferred garbage do not masquerade as leaks. *)

val finish_teardown : Env.t -> ptr -> unit
(** Finish a teardown whose owner crashed after taking the count to zero
    (crash recovery's adoption path): commit the drop of every child
    still in a slot — the mode claiming what each slot carries first, as
    in a live teardown — then free the husk. Callable only on a live
    object whose count is zero. *)

val with_locals : Env.t -> int -> (ptr ref array -> 'a) -> 'a
(** [with_locals env n f] runs [f] with [n] null-initialized local pointer
    variables and destroys whatever they hold on exit, normal or
    exceptional — the paper's step 6 made impossible to forget. *)

val read_ptr : Env.t -> Lfrc_simmem.Cell.t -> ptr
(** Raw read of a pointer cell *without* touching reference counts. This
    is **not** an LFRC operation: the value is unprotected and must only
    be used for comparisons (never dereferenced). Exposed for baselines
    and diagnostics. *)
