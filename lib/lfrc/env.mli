(** Execution environment threaded through every LFRC operation: the heap,
    the DCAS substrate, and the destroy policy.

    The destroy policy governs what happens when a reference count falls to
    zero:

    - [Recursive]: free the object and recursively destroy its pointers —
      the paper's Figure 2 verbatim. A long chain destroys with deep
      recursion and an unbounded pause. (Weighted counts always tear down
      on the work list.)
    - [Iterative]: semantically identical, but with an explicit work list,
      so arbitrarily long chains cannot overflow the stack. The default.
    - [Deferred]: enqueue the dead object and free at most
      [budget_per_op] objects per subsequent LFRC operation — the paper's
      Section 7 "incremental collection" future-work extension, bounding
      pause times (experiment E6). [flush] drains the queue. *)

type policy = Env_base.policy =
  | Recursive
  | Iterative
  | Deferred of { budget_per_op : int }

(** How reference-count adjustments reach the heap — the environment's
    count-delivery mode, one implementation of {!Env_base.DELIVERY}
    chosen once by {!create}:

    - [Eager] ({!Rc_eager}) — every ±1 is a CAS on the object's count
      word, the paper's Figure-2 behaviour. The default.
    - [Deferred_rc { epoch }] ({!Rc_deferred}) — deferred-rc coalescing:
      {!Lfrc}'s increment and decrement sites park ±1 adjustments in
      per-thread buffers instead of CASing the heap count, and a global
      flush applies the netted deltas once [epoch] adjustments have been
      parked (or earlier, at forced flush points). [epoch] must be
      positive.
    - [Wait_free { weight }] ({!Rc_weighted}) — weighted (split)
      reference counts, Blelloch–Wei style: the count word holds the
      object's {e total weight} (the sum over every live reference of the
      weight it carries), [copy]/[destroy] adjust it with a single
      {!Lfrc_atomics.Dcas.fetch_add} — no retry loop — and pointer
      handoffs move weight instead of touching the count at all. The
      Figure-2 DCAS survives only as [load]'s fallback when a heap slot's
      weight is exhausted; [weight] (clamped to >= 2) is the batch minted
      per refill. See DESIGN.md §17. *)
type rc_mode = Env_base.rc_mode =
  | Eager
  | Deferred_rc of { epoch : int }
  | Wait_free of { weight : int }

type t = Env_base.t
(** The environment. Its mode-independent part lives in {!Env_base},
    which only {!Lfrc} and the count-delivery modules use directly. *)

val create :
  ?dcas_impl:Lfrc_atomics.Dcas.impl ->
  ?policy:policy ->
  ?rc_mode:rc_mode ->
  ?gc_threshold:int ->
  ?metrics:Lfrc_obs.Metrics.t ->
  ?tracer:Lfrc_obs.Tracer.t ->
  ?lineage:Lfrc_obs.Lineage.t ->
  ?profile:Lfrc_obs.Profile.t ->
  ?blame:Lfrc_obs.Blame.t ->
  ?sanitize:Lfrc_sanitize.Shadow.t ->
  ?symbolic:bool ->
  Lfrc_simmem.Heap.t ->
  t
(** Defaults: [dcas_impl] is [Atomic_step] when called under the simulator
    and [Striped_lock] otherwise; [policy] is [Iterative]; [gc_threshold]
    (live-object count that triggers a tracing collection in GC-dependent
    mode; 0 disables) is 0.

    [rc_mode] (default [Eager]) selects the count-delivery mode; see
    {!type:rc_mode}. It is the only mode switch: everything mode-specific
    lives in the chosen implementation's state.

    [blame] (default disabled, one branch per event) wires the contention
    causality layer: the DCAS substrate stamps every successful write and
    charges every failed compare to its stamped culprit, and the heap
    observer binds each new object's reference-count cell to the object,
    once, at allocation, so rc contention is named. Attaching a registry
    calls {!Lfrc_obs.Blame.new_run} first:
    the previous run's stamps and owner bindings are dropped, and its
    open retry chains, whose thread slots this run's threads reuse, are
    cleared (aggregated pairs survive).

    [metrics], [tracer], [lineage] and [profile] default to the disabled
    singletons — the no-op
    observability implementations, chosen here once so every instrumented
    hot path below pays a single branch when observability is off.
    Passing enabled instances wires the whole environment: the DCAS
    substrate (through the one observer described below), the heap's
    alloc/free observer ({!Lfrc_simmem.Heap.set_observer}), the
    deferred-destroy queue, and {!Lfrc}'s operations all report into
    them. Sharing one registry across several environments aggregates
    their series.

    Those four layers, and the sanitizer, read their op context from
    the environment's one stack of open op spans ({!span_begin}), which
    {!Lfrc} feeds only when tracer, lineage, profiler or blame is on.

    [sanitize] (default {!Lfrc_sanitize.Shadow.disabled}, one branch per
    access) wires the LFRC-San shadow-memory sanitizer: it is bound to
    this heap, observability and {!span_site}
    ({!Lfrc_sanitize.Shadow.attach}), fed every substrate step by the
    same observer, fed alloc/free events through the heap observer, and
    notified by {!Lfrc}'s zero-detect paths when a thread takes
    ownership of a dead object's destruction.

    The substrate's observer fans every step out to the layers given
    here; with metrics, tracer, profiler, blame and sanitizer all off it
    is not installed. Sites and charges are the calling thread's
    innermost span, ["(unattributed)"] with none open. Per step, in this
    order:
    - the sanitizer's access hook;
    - blame: a winning write, CAS, DCAS or fetch-add stamps its cell(s)
      with the innermost span's site; a failed CAS or DCAS is charged to
      the stamped culprit — on a DCAS, the first word whose compare
      fails, found by a raw peek that does not yield;
    - the [dcas.*] counters: [reads], [writes], [rmw], [cas_attempts] /
      [cas_failures], [dcas_attempts] / [dcas_failures], and on a
      [Software_mcas] substrate [mcas.attempt] with [mcas.success] or
      [mcas.fail] per DCAS;
    - a failed attempt emits a tracer [Retry] event and charges the
      innermost span, or the profiler's ["(unattributed)"] site.

    An injected failure counts [dcas.spurious_cas] or
    [dcas.spurious_dcas], emits a [Fault] event and is then accounted as
    a failed attempt; blame charges it to ["(fault-injection)"], after
    that accounting for a CAS and before it for a DCAS. These [dcas.*]
    series are the only count of substrate traffic.

    [symbolic] marks the environment as belonging to the static analyser
    ([lib/analysis]): structure code running over it is being *recorded*,
    not executed, so no real LFRC operation may touch it. Every {!Lfrc}
    entry point checks the flag and raises {!Lfrc.Symbolic_bypass} — which
    is how the analyser catches client code that side-steps the
    {!Ops_intf.OPS_DCAS} functor argument and calls {!Lfrc} directly (a
    discipline violation the type checker alone cannot see, because the
    environment is reachable through the structure record). *)

val heap : t -> Lfrc_simmem.Heap.t
val dcas : t -> Lfrc_atomics.Dcas.t

val symbolic : t -> bool
(** Whether this environment is a static-analysis recording environment
    (created with [~symbolic:true]); see {!create}. *)

val policy : t -> policy
val gc_threshold : t -> int

val metrics : t -> Lfrc_obs.Metrics.t
val tracer : t -> Lfrc_obs.Tracer.t

val lineage : t -> Lfrc_obs.Lineage.t
(** The per-object lifecycle recorder ({!Lfrc_obs.Lineage}); the heap
    observer feeds it alloc/free events and {!Lfrc} feeds it count
    transitions, retires and deferrals, each under the innermost span. *)

val profile : t -> Lfrc_obs.Profile.t
(** The call-site contention profiler ({!Lfrc_obs.Profile}); each
    closing span is observed into its site's histograms. *)

val blame : t -> Lfrc_obs.Blame.t
(** The contention-causality registry ({!Lfrc_obs.Blame}); the DCAS
    substrate stamps winners and charges losers under the innermost
    span's site, and the heap observer binds rc cells to their owners. *)

val sanitizer : t -> Lfrc_sanitize.Shadow.t
(** The LFRC-San shadow-memory sanitizer this environment was created
    with; the disabled singleton unless [~sanitize] was passed. *)

(** {2 Op spans}

    Which LFRC operation each thread is inside, kept once: a stack of
    open spans per thread slot, touched without a lock by its own thread
    only (and by {!adopt_spans} once that thread has crashed). The spans
    die with the environment, so a registry shared with a later one
    never sees them. *)

val span_begin : t -> Lfrc_obs.Metrics.key -> unit
(** Open a span of the op named by the key on the calling thread: the
    tracer gets [Begin], and the span, now innermost, is charged the
    retries and failed attempts that follow. *)

val span_end : t -> Lfrc_obs.Metrics.key -> unit
(** Close the calling thread's innermost span: blame closes the retry
    chain it opened, the profiler observes it, the tracer gets [End].
    A pair takes no lock once the profiler has seen its site (blame
    locks only to close a chain), and allocates nothing once the stack
    and the histogram buckets have grown. *)

val span_site : t -> string
(** The calling thread's innermost span: ["(unattributed)"] with none
    open, ["?"] when no span layer is on. *)

val adopt_spans : t -> crashed:int list -> int * int
(** Surrender the crashed threads' open spans and fold them, and their
    open retry chains, into blame ({!Lfrc_obs.Blame.adopt}); returns its
    [(frames, chains)], [(0, 0)] when repeated. *)

val set_incremental : t -> collector:Lfrc_simmem.Gc_incr.t -> budget:int -> unit
(** Attach an incremental collector for GC-dependent mode: {!Gc_ops} will
    discharge its write-barrier and allocation-color obligations and
    advance the cycle by [budget] units per operation. Mutually exclusive
    in spirit with [gc_threshold]-driven stop-the-world collection (the
    incremental collector takes precedence when attached). *)

val incremental : t -> (Lfrc_simmem.Gc_incr.t * int) option

(** {2 Count delivery}

    The mode-independent entry points into the environment's
    count-delivery implementation. {!Lfrc} drives the rest of its hooks;
    structure code never calls these. *)

val rc_mode : t -> rc_mode
(** The count-delivery mode this environment was created with (epoch and
    weight as clamped by {!create}). *)

val settle : t -> unit
(** Land every count adjustment the mode holds back: a full deferred-rc
    flush (freeing what reaches zero); nothing in eager and weighted mode.
    Unlike {!Lfrc.flush} it leaves the deferred-destroy queue alone. The
    forced settle points — context disposal, the chaos runner's pre-audit,
    recovery's last step — call this. *)

val adopt : t -> crashed:int list -> int
(** Crash adoption of the mode's own tables, run by recovery before any
    adoption destroy: deferred-rc re-parks a crashed flusher's staged
    deltas and counts the dead threads' parked buffers (they settle at the
    next flush); weighted merges the dead threads' weight pouches into the
    caller's ([lfrc.adopt_weight]). Returns how many entries it settled. *)

val adopt_publication : t -> int -> weight:int -> unit
(** Prepare a crashed thread's pending publication of [weight] units (see
    {!adopt_publications}) for its compensating {!Lfrc.destroy}: weighted
    mode pouches the batch so the destroy returns exactly what was minted. *)

val in_transit : t -> int list
(** Addresses the mode's tables hold in the middle of an accounting
    transfer: parked or flush-staged deltas (deferred-rc), pouched weight
    (weighted); always empty in eager mode. Folded into {!anchors}. *)

val defer : t -> int -> unit
(** Enqueue a dead object for deferred freeing. Only valid under the
    [Deferred] policy. *)

val drain_deferred : t -> max:int -> int list
(** Dequeue up to [max] pending dead objects (all of them if [max < 0]). *)

val deferred_pending : t -> int

(** {2 Audit publication}

    From the moment a destroy commits to dropping a reference until the
    object is freed (or parked in the deferred queue), that reference is
    held only in the destroying thread's OCaml locals — invisible to the
    heap. The destroy registry republishes such objects (one stack per
    thread slot, {!Lfrc_sched.Sched.slot}), and {!register_locals} does
    the same for a thread's local pointer variables, so the post-mortem
    fault auditor can attribute a crashed thread's leaks to its lost
    references instead of flagging them as unaccounted.

    None of this is visible to the heap: heap frames feed the tracing
    collectors and invariant checkers, whose semantics must not change
    under LFRC (a dead thread's stack is gone in the real world, and a
    counted local mid-ownership-transfer is not an extra reference).
    {!Lfrc}'s destroy paths and {!Lfrc_ops} maintain these registries;
    user code never needs to. *)

val begin_destroy : t -> int -> unit
(** Record that the current simulated thread holds an unpublished
    reference to this object while tearing it down. *)

val end_destroy : t -> int -> unit
(** The object has been freed (or handed to the deferred queue); drop
    the current thread's newest registry entry for it. *)

val destroying_now : t -> int list
(** All registered in-flight destroys, across threads (auditing aid). *)

val adopt_destroying : t -> tids:int list -> int list
(** Surrender and clear the destroy-registry entries of the given
    (crashed) threads. Each entry is one distinct committed-but-unfinished
    drop; duplicates are multiple pending drops and are all returned.
    Entries come newest first per thread, the last-listed thread's
    first; ids without a thread slot are skipped. *)

val begin_publish : t -> weight:int -> int -> unit
(** Record a speculative count increment the current thread has made ahead
    of a publishing CAS (store/cas/dcas raise the new pointer's count
    first). [weight] is the size of the increment — 1, or a whole weight
    batch in wait-free mode — and is what a recovery pass must
    compensate. No-op on null. *)

val end_publish : t -> int -> unit
(** The publication resolved — the CAS landed, or the compensating destroy
    is about to be registered; drop the newest occurrence. No-op on
    null. *)

val publishing_now : t -> int list
(** All pending publications, across threads (auditing aid). *)

val adopt_publications : t -> tids:int list -> (int * int) list
(** Surrender and clear the pending publications of the given (crashed)
    threads, one [(addr, weight)] entry per uncompensated increment, in
    {!adopt_destroying}'s order. *)

type local_frame

val register_locals :
  t -> view:(unit -> int list) -> take:(unit -> int list) -> local_frame
(** Publish a thread's local pointer variables for the auditor. [view]
    reads them non-destructively (anchoring); [take] surrenders them —
    reads and clears — so a recovery pass can adopt them exactly once.
    The calling simulated thread is recorded as the frame's owner.
    Returns a token for {!unregister_locals}. *)

val unregister_locals : t -> local_frame -> unit

val adopt_locals : t -> tids:int list -> (int * int list) list
(** Take over (surrender + unregister) the local frames owned by the given
    (crashed) threads; returns [(owner tid, refs)] per frame. *)

val on_recover : t -> (crashed:int list -> int) -> unit
(** Register a recovery hook. Reclamation baselines (EBR/HP) use this to
    evict crashed threads' pinned epochs / hazard slots without the fault
    layer depending on the reclaim library. The hook returns how many
    slots/objects it recovered. *)

val run_recovery_hooks : t -> crashed:int list -> int
(** Run all registered recovery hooks; returns the summed counts. *)

val anchors : t -> int list
(** Everything the auditor may treat as a lost-reference anchor: in-flight
    destroys, the deferred queue's contents, {!in_transit}, pending
    publications, and all registered locals (with duplicates and nulls
    possible; the caller filters). *)
