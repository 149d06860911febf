(* The mode-independent part of the execution environment — heap, DCAS
   substrate, destroy policy, observability handles, the destroy /
   publication / locals registries and the deferred-destroy queue — plus
   the count-delivery signature every rc mode implements. {!Env} is the
   public face: it re-exports all of this and picks the mode at
   [Env.create]. The split exists so the mode implementations
   ([Rc_eager], [Rc_deferred], [Rc_weighted]) can sit between the two:
   they need the shared environment, and [Env.create] needs them. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Metrics = Lfrc_obs.Metrics
module Tracer = Lfrc_obs.Tracer
module Lineage = Lfrc_obs.Lineage
module Profile = Lfrc_obs.Profile
module Blame = Lfrc_obs.Blame
module Shadow = Lfrc_sanitize.Shadow

type policy =
  | Recursive
  | Iterative
  | Deferred of { budget_per_op : int }

type rc_mode =
  | Eager
  | Deferred_rc of { epoch : int }
  | Wait_free of { weight : int }

(* Count delivery: the places where the rc modes differ, and nothing
   else. {!Lfrc} runs one Figure-2 body per operation and calls these
   hooks at the points marked below; each hook runs inside the no-yield
   window of the shared-memory step it pairs with, so a mutex-only table
   update in a hook is atomic with that step under the simulator. DESIGN.md
   "Count delivery" tabulates what each mode does per hook. *)
module type DELIVERY = sig
  type env
  type state

  val mode : state -> rc_mode

  (* Acquire on load. [a] was just read from [src]. [borrow] takes a
     counted reference without the Figure-2 DCAS, or answers [false];
     the DCAS then adds [load_mint] to the count, and [loaded] follows
     its success. *)
  val borrow : state -> env -> src:Cell.t -> Heap.ptr -> bool
  val load_mint : state -> int
  val loaded : state -> env -> src:Cell.t -> Heap.ptr -> old_rc:int -> unit

  (* Publish before CAS. [publish] raises a non-null pointer's count
     ahead of the CAS that installs it and registers the publication in
     the same step. [acquire_copy] is [copy]'s raise; [true] means it
     registered a publication the caller ends after the assignment.
     [installed] follows a winning CAS that replaced [old] on [cell] with
     a published pointer, or with the caller's own reference when
     [owned]. [retract] follows a losing one: [true] when the mode kept
     the unspent raise, [false] when the caller must drop it. *)
  val publish : state -> env -> Heap.ptr -> unit
  val acquire_copy : state -> env -> Heap.ptr -> bool

  val installed :
    state -> env -> cell:Cell.t -> old:Heap.ptr -> Heap.ptr -> owned:bool -> unit

  val retract : state -> env -> Heap.ptr -> bool

  (* Drop. [drop] takes one unregistered reference to a non-null object:
     [true] means it registered the pending drop for the caller to commit
     under the destroy policy, [false] that the mode settled it. [release]
     drops a registered reference with exact zero-detect: [true] when the
     object died (the registration stays, for the teardown), otherwise it
     consumes the registration. [claim] runs when a teardown takes a child
     out of a dead parent's slot, before the slot is nulled.
     [nested_drop_span]: a pointer displaced by a CAS, or taken back from
     a failed publication or a crashed teardown, is dropped through
     [Lfrc.destroy] (its own [lfrc.destroy] span, where the profiler
     charges the cascade's failed CASes) rather than committed in place.
     [recursive_teardown]: the [Recursive] policy tears down recursively
     instead of on the work list. *)
  val drop : state -> env -> Heap.ptr -> bool
  val release : state -> env -> Heap.ptr -> bool
  val claim : state -> env -> cell:Cell.t -> Heap.ptr -> unit
  val nested_drop_span : bool
  val recursive_teardown : bool

  (* Flush, crash adoption, audit anchors. [flush] lands every count
     adjustment the mode holds back and returns the objects it freed.
     [adopt] takes over what crashed threads left in the mode's tables
     and returns how many entries it settled; [adopt_publication]
     prepares a crashed thread's pending publication of [weight] units
     for its compensating destroy. [anchors] lists the addresses the
     mode's tables hold references for. *)
  val flush : state -> env -> int
  val adopt : state -> env -> crashed:int list -> int
  val adopt_publication : state -> env -> Heap.ptr -> weight:int -> unit
  val anchors : state -> int list
end

(* A registered thread-local pointer frame. [fr_view] reads the current
   locals non-destructively (auditor anchors); [fr_take] surrenders them —
   reads and clears — so a recovery pass can adopt a crashed owner's
   references exactly once. *)
type frame = {
  fr_id : int;
  fr_tid : int;
  fr_view : unit -> int list;
  fr_take : unit -> int list;
}

(* Per-thread tables, one per thread slot ({!Lfrc_sched.Sched.slot}: a
   simulated thread's, or a real domain's own), each created on its
   thread's first use: an environment pays nothing per slot until a
   thread touches it. Every per-thread table on the count path sits
   behind this. Callers take the calling thread's slot before any lock,
   to keep the critical section short. Only a slot's own thread creates
   its table, but two domains may create theirs at once, so creation
   takes [grow]. *)
module Per_thread = struct
  type 'a t = {
    make : unit -> 'a;
    by_slot : 'a option array;
    mutable made : 'a array;  (* every table in use, oldest first *)
    grow : Mutex.t;
  }

  let create make =
    {
      make;
      by_slot = Array.make Lfrc_sched.Limits.slots None;
      made = [||];
      grow = Mutex.create ();
    }

  let add t slot =
    Mutex.lock t.grow;
    let x =
      match t.by_slot.(slot) with
      | Some x -> x
      | None ->
          let x = t.make () in
          t.made <- Array.append t.made [| x |];
          t.by_slot.(slot) <- Some x;
          x
    in
    Mutex.unlock t.grow;
    x

  let get t slot = match t.by_slot.(slot) with Some x -> x | None -> add t slot

  (* [tid]'s table, if it has a slot and has used it; [adopt_*] take ids
     from the caller. *)
  let of_tid t tid =
    if Lfrc_sched.Limits.has_slot tid then
      t.by_slot.(Lfrc_sched.Limits.slot_of_tid tid)
    else None

  (* The tables in use, in the order their threads first used them. *)
  let made t = t.made
end

(* The open op spans, kept once per environment for every layer that
   attributes work to an op: per thread slot, a stack of frame records
   reused from call to call, innermost last. A frame dies with its
   environment.

   No lock guards a stack. While its thread lives, a slot's stack is
   read and written only by that thread: a simulated thread and each
   real domain has a slot of its own ({!Lfrc_sched.Sched.slot}). The one
   other access is {!adopt_spans}, which runs on the simulating domain
   after the owner crashed at a yield point; no span code runs at a
   yield point, so the owner left its stack whole and never touches it
   again. *)
module Spans = struct
  type frame = {
    mutable key : Metrics.key;
    mutable start_step : int;
    mutable retries : int;
    mutable dcas : int;
  }

  type stack = { mutable depth : int; mutable frames : frame array }
  type t = stack Per_thread.t

  let k_unattributed = Metrics.key "(unattributed)"

  let create () = Per_thread.create (fun () -> { depth = 0; frames = [||] })

  let fresh _ = { key = k_unattributed; start_step = 0; retries = 0; dcas = 0 }

  (* The stack's next free frame, grown on demand. *)
  let push st =
    if st.depth = Array.length st.frames then
      st.frames <- Array.append st.frames (Array.init (max 4 st.depth) fresh);
    st.depth <- st.depth + 1;
    st.frames.(st.depth - 1)

  (* The calling thread's innermost span key, [(unattributed)] with none
     open. *)
  let key t =
    let st = Per_thread.get t (Lfrc_sched.Sched.slot ()) in
    if st.depth = 0 then k_unattributed else st.frames.(st.depth - 1).key

  (* Charge the calling thread's innermost span one retry ([retry]) or
     one failed attempt; with none open, the profiler's unattributed
     site takes it. *)
  let charge t profile ~retry =
    let st = Per_thread.get t (Lfrc_sched.Sched.slot ()) in
    if st.depth > 0 then begin
      let f = st.frames.(st.depth - 1) in
      if retry then f.retries <- f.retries + 1 else f.dcas <- f.dcas + 1
    end
    else Profile.unattributed profile ~retry

  (* For lineage: the innermost op, ["?"] with none open. *)
  let op_name t =
    let k = key t in
    if (k :> int) = (k_unattributed :> int) then "?" else Metrics.key_name k
end

(* One thread's registry entries: a growable int stack, newest on top.
   It lives in this module so that the registry paths, run several
   times per LFRC op, make no call into another module: each library
   compiles opaquely in the default build, so such calls are never
   inlined. Only growth allocates. *)
module Int_stack = struct
  type t = { mutable items : int array; mutable len : int }

  let create () = { items = [||]; len = 0 }

  let push t x =
    if t.len = Array.length t.items then begin
      let bigger = Array.make (max 8 (2 * t.len)) 0 in
      Array.blit t.items 0 bigger 0 t.len;
      t.items <- bigger
    end;
    t.items.(t.len) <- x;
    t.len <- t.len + 1

  let rec find_from t x i =
    if i < 0 then -1 else if t.items.(i) = x then i else find_from t x (i - 1)

  (* The position of the newest entry equal to [x], or -1. *)
  let find_newest t x = find_from t x (t.len - 1)

  (* Shift the newer entries down over entry [i] in a loop: the entry
     removed is nearly always the top or next to it, and [Array.blit] is
     a C call even for nothing. *)
  let remove_at t i =
    for j = i to t.len - 2 do
      t.items.(j) <- t.items.(j + 1)
    done;
    t.len <- t.len - 1

  (* The entries, newest first. *)
  let to_list t =
    let acc = ref [] in
    for i = 0 to t.len - 1 do
      acc := t.items.(i) :: !acc
    done;
    !acc
end

(* One thread's registry entries and the lock that guards them: the
   thread itself and the registry-wide readers (audits, crash adoption)
   take it. *)
type destroys = { des_lock : Mutex.t; des_stack : Int_stack.t }

type publications = {
  pub_lock : Mutex.t;
  pub_addrs : Int_stack.t;
  pub_weights : Int_stack.t;
}

type t = {
  env_heap : Heap.t;
  env_dcas : Lfrc_atomics.Dcas.t;
  env_policy : policy;
  env_rc : rc;
  pending : int Queue.t;
  pending_lock : Mutex.t;
  (* Objects a destroy is in the middle of tearing down, one stack per
     thread slot, newest on top.
     While a destroy runs, the reference being dropped is held only in
     OCaml locals, invisible to the heap; this registry republishes it so
     the post-mortem fault auditor can account for it if the destroying
     thread crashes. Deliberately NOT a heap frame: heap frames feed the
     tracing collectors and invariant checkers, whose semantics must not
     change under LFRC. *)
  destroying : destroys Per_thread.t;
  (* Speculative count increments not yet justified by a heap-visible
     pointer: store/cas/dcas raise the new pointer's count before the
     publishing CAS, and a crash in between leaves a +1 no destroy will
     ever compensate. One pair of stacks per thread slot, as
     [destroying], so recovery can compensate a crashed thread's pending
     publications; entry [i] is (address, weight). *)
  publishing : publications Per_thread.t;
  (* Thread-local pointer variables published for the same auditor (their
     heap-frame analogue, kept off the heap for the same reason). Each
     frame records its owning thread and a [take] closure that surrenders
     the locals, so recovery can adopt a crashed thread's references. *)
  mutable local_frames : frame list;
  mutable local_frame_ctr : int;
  local_frames_lock : Mutex.t;
  (* Recovery hooks: reclamation baselines (EBR/HP) register a closure at
     create time that evicts crashed threads' pinned epochs / hazard slots.
     The registry lives here — not in the fault layer — so the reclaim
     library needs no dependency on faults and vice versa. *)
  mutable recover_hooks : (crashed:int list -> int) list;
  env_gc_threshold : int;
  mutable env_incremental : (Lfrc_simmem.Gc_incr.t * int) option;
  env_metrics : Metrics.t;
  env_tracer : Tracer.t;
  env_lineage : Lineage.t;
  env_profile : Profile.t;
  env_blame : Blame.t;
  env_sanitizer : Shadow.t;
  env_spans : Spans.t;
  spans_on : bool;  (* some span layer is on, so {!Lfrc} opens spans *)
  per_retry : bool;  (* tracer or profiler on: see {!retried} *)
  env_symbolic : bool;
}

(* The environment's count-delivery implementation, packed with its
   mode-private state. *)
and rc = Rc : (module DELIVERY with type env = t and type state = 's) * 's -> rc

(* Series keys, interned once; every recording site below names one. *)
let k_reads = Metrics.key "dcas.reads"
let k_writes = Metrics.key "dcas.writes"
let k_rmw = Metrics.key "dcas.rmw"
let k_cas_attempts = Metrics.key "dcas.cas_attempts"
let k_cas_failures = Metrics.key "dcas.cas_failures"
let k_dcas_attempts = Metrics.key "dcas.dcas_attempts"
let k_dcas_failures = Metrics.key "dcas.dcas_failures"
let k_spurious_cas = Metrics.key "dcas.spurious_cas"
let k_spurious_dcas = Metrics.key "dcas.spurious_dcas"
let k_mcas_attempt = Metrics.key "mcas.attempt"
let k_mcas_success = Metrics.key "mcas.success"
let k_mcas_fail = Metrics.key "mcas.fail"
let k_heap_allocs = Metrics.key "heap.allocs"
let k_heap_frees = Metrics.key "heap.frees"
let k_heap_live = Metrics.key "heap.live"
let k_deferred = Metrics.key "lfrc.deferred"
let k_deferred_depth = Metrics.key "lfrc.deferred_depth"
let k_frees = Metrics.key "lfrc.frees"
let k_rc_retry = Metrics.key "lfrc.rc_retry"

(* The one fan-out from substrate steps to the observability layers. Each
   step reports here once, and the order inside each arm is part of the
   contract: the tracer and blame outputs pin it. Sites and charges are
   the calling thread's innermost span in [spans]. *)
let observe_spans ~spans ~metrics ~tracer ~profile ~blame ~sanitize d =
  let module Dcas = Lfrc_atomics.Dcas in
  let attempted kind ok =
    let cas = kind = Blame.Cas in
    Metrics.incr metrics (if cas then k_cas_attempts else k_dcas_attempts);
    if not ok then begin
      Metrics.incr metrics (if cas then k_cas_failures else k_dcas_failures);
      Tracer.emit tracer Retry (if cas then "cas" else "dcas");
      if Profile.enabled profile then Spans.charge spans profile ~retry:false
    end
  in
  let blame_on = Blame.enabled blame in
  let stamp kind c =
    if blame_on then Blame.stamp blame ~site:(Spans.key spans) kind (Cell.id c)
  and charge kind c =
    if blame_on then
      Blame.charge blame ~site:(Spans.key spans) kind (Cell.id c)
  and spurious kind =
    if blame_on then Blame.charge_spurious blame ~site:(Spans.key spans) kind
  in
  let mcas = Dcas.impl d = Dcas.Software_mcas in
  let on =
    Metrics.enabled metrics || Tracer.enabled tracer || Profile.enabled profile
    || Blame.enabled blame || Shadow.enabled sanitize
  in
  Dcas.set_observer d
    (if not on then None
     else
       Some
         {
           Dcas.on_read =
             (fun c v ->
               Shadow.on_read sanitize c v;
               Metrics.incr metrics k_reads);
           on_write =
             (fun c v ->
               Shadow.on_write sanitize c v;
               stamp Blame.Write c;
               Metrics.incr metrics k_writes);
           on_rmw =
             (fun c ->
               Shadow.on_rmw sanitize c;
               stamp Blame.Rmw c;
               Metrics.incr metrics k_rmw);
           on_cas =
             (fun c ~old_v ~new_v ~ok ->
               Shadow.on_cas sanitize c ~old_v ~new_v ~ok;
               if ok then stamp Blame.Cas c else charge Blame.Cas c;
               attempted Blame.Cas ok);
           on_dcas =
             (fun c0 c1 ~old0 ~old1 ~new0 ~new1 ~ok ->
               Shadow.on_dcas sanitize c0 c1 ~old0 ~old1 ~new0 ~new1 ~ok;
               if ok then begin
                 stamp Blame.Dcas c0;
                 stamp Blame.Dcas c1
               end
               else if blame_on then
                 (* The culprit is whichever word failed its compare; a
                    raw peek (no Sched.point) keeps the schedule identical
                    to a blame-free run. With both words stale, blaming
                    the first is still a true cause. *)
                 charge Blame.Dcas (if Cell.get c0 <> old0 then c0 else c1);
               attempted Blame.Dcas ok;
               if mcas then begin
                 Metrics.incr metrics k_mcas_attempt;
                 Metrics.incr metrics (if ok then k_mcas_success else k_mcas_fail)
               end);
           on_spurious_cas =
             (fun () ->
               Metrics.incr metrics k_spurious_cas;
               Tracer.emit tracer Fault "spurious-cas";
               attempted Blame.Cas false;
               spurious Blame.Cas);
           on_spurious_dcas =
             (fun () ->
               Metrics.incr metrics k_spurious_dcas;
               Tracer.emit tracer Fault "spurious-dcas";
               spurious Blame.Dcas;
               attempted Blame.Dcas false);
         })

(* --- op spans: the one subscriber set {!Lfrc}'s spans feed ---

   The tracer's End is emitted even with no frame to close: a span that
   the scheduler unwinds after a failed run ends on its own slot. *)

let span_begin t key =
  Tracer.emit t.env_tracer Begin (Metrics.key_name key);
  let st = Per_thread.get t.env_spans (Lfrc_sched.Sched.slot ()) in
  let f = Spans.push st in
  f.key <- key;
  f.start_step <- Lfrc_sched.Sched.steps_so_far ();
  f.retries <- 0;
  f.dcas <- 0

let span_end t key =
  let st = Per_thread.get t.env_spans (Lfrc_sched.Sched.slot ()) in
  if st.depth > 0 then begin
    st.depth <- st.depth - 1;
    let f = st.frames.(st.depth) in
    let steps = max 0 (Lfrc_sched.Sched.steps_so_far () - f.start_step) in
    Blame.op_end t.env_blame f.key;
    Profile.op_end t.env_profile f.key ~steps ~retries:f.retries ~dcas:f.dcas
  end;
  Tracer.emit t.env_tracer End (Metrics.key_name key)

let span_site t =
  if t.spans_on then Metrics.key_name (Spans.key t.env_spans) else "?"

(* Crashed threads never close their spans: surrender their frames, and
   fold them and their open retry chains into blame. *)
let adopt_spans t ~crashed =
  let frames = ref 0 in
  let surrender (st : Spans.stack) =
    frames := !frames + st.depth;
    st.depth <- 0
  in
  List.iter
    (fun tid -> Option.iter surrender (Per_thread.of_tid t.env_spans tid))
    crashed;
  Blame.adopt t.env_blame ~crashed ~frames:!frames

(* Lineage events attributed to the calling thread's innermost span. *)
let record_lineage t ~addr kind =
  if Lineage.enabled t.env_lineage then
    Lineage.record t.env_lineage ~op:(Spans.op_name t.env_spans) ~addr kind

let record_lineage_rc t ~addr ~old_rc ~delta =
  if Lineage.enabled t.env_lineage then
    Lineage.record_rc t.env_lineage ~op:(Spans.op_name t.env_spans) ~addr
      ~old_rc ~delta ()

let make ?dcas_impl ?(policy = Iterative) ?(gc_threshold = 0)
    ?(metrics = Metrics.disabled) ?(tracer = Tracer.disabled)
    ?(lineage = Lineage.disabled) ?(profile = Profile.disabled)
    ?(blame = Blame.disabled) ?(sanitize = Shadow.disabled) ?(symbolic = false)
    ~rc heap =
  let impl =
    match dcas_impl with
    | Some i -> i
    | None ->
        if Lfrc_sched.Sched.active () then Lfrc_atomics.Dcas.Atomic_step
        else Lfrc_atomics.Dcas.Striped_lock
  in
  let d = Lfrc_atomics.Dcas.create impl in
  (* A blame registry may outlive several environments: drop the last
     run's stamps, owner bindings and open retry chains (see
     {!Blame.new_run}). *)
  Blame.new_run blame;
  let t =
    {
      env_heap = heap;
      env_dcas = d;
      env_policy = policy;
      env_rc = rc;
      pending = Queue.create ();
      pending_lock = Mutex.create ();
      destroying =
        Per_thread.create (fun () ->
            { des_lock = Mutex.create (); des_stack = Int_stack.create () });
      publishing =
        Per_thread.create (fun () ->
            {
              pub_lock = Mutex.create ();
              pub_addrs = Int_stack.create ();
              pub_weights = Int_stack.create ();
            });
      local_frames = [];
      local_frame_ctr = 0;
      local_frames_lock = Mutex.create ();
      recover_hooks = [];
      env_gc_threshold = gc_threshold;
      env_incremental = None;
      env_metrics = metrics;
      env_tracer = tracer;
      env_lineage = lineage;
      env_profile = profile;
      env_blame = blame;
      env_sanitizer = sanitize;
      env_spans = Spans.create ();
      (* The span layers: with all four off, {!Lfrc} opens no span. *)
      spans_on =
        Tracer.enabled tracer || Profile.enabled profile
        || Lineage.enabled lineage || Blame.enabled blame;
      per_retry = Tracer.enabled tracer || Profile.enabled profile;
      env_symbolic = symbolic;
    }
  in
  observe_spans ~spans:t.env_spans ~metrics ~tracer ~profile ~blame ~sanitize
    d;
  Shadow.attach sanitize ~heap ~metrics ~tracer ~site:(fun () -> span_site t);
  let obs_on =
    Metrics.enabled metrics || Tracer.enabled tracer || Lineage.enabled lineage
    || Blame.enabled blame
  in
  let san_on = Shadow.enabled sanitize in
  if obs_on || san_on then
    Heap.set_observer heap
      (Some
         (fun ev ->
           if obs_on then
             (match ev with
             | Heap.Obs_alloc { p; gen; live } ->
                 Metrics.incr metrics k_heap_allocs;
                 Metrics.set_gauge metrics k_heap_live live;
                 record_lineage t ~addr:p (Lineage.Alloc { gen });
                 (* Once: an rc cell's owner is fixed for its life. *)
                 Blame.bind_owner blame ~cell:(Cell.id (Heap.rc_cell heap p))
                   ~addr:p
             | Heap.Obs_free { p; gen; live } ->
                 Metrics.incr metrics k_heap_frees;
                 Metrics.set_gauge metrics k_heap_live live;
                 Tracer.emit tracer ~arg:p Free "free";
                 record_lineage t ~addr:p (Lineage.Free { gen }));
           Shadow.on_heap_event sanitize ev));
  t

let heap t = t.env_heap
let dcas t = t.env_dcas
let rc t = t.env_rc
let symbolic t = t.env_symbolic
let policy t = t.env_policy
let gc_threshold t = t.env_gc_threshold
let metrics t = t.env_metrics
let tracer t = t.env_tracer
let lineage t = t.env_lineage
let profile t = t.env_profile
let blame t = t.env_blame
let sanitizer t = t.env_sanitizer
let spans_on t = t.spans_on

let set_incremental t ~collector ~budget =
  t.env_incremental <- Some (collector, budget)

let incremental t = t.env_incremental

(* --- the count-delivery hooks that callers outside {!Lfrc} reach --- *)

let rc_mode t =
  let (Rc ((module D), st)) = t.env_rc in
  D.mode st

let settle t =
  let (Rc ((module D), st)) = t.env_rc in
  ignore (D.flush st t)

let adopt t ~crashed =
  let (Rc ((module D), st)) = t.env_rc in
  D.adopt st t ~crashed

let adopt_publication t p ~weight =
  let (Rc ((module D), st)) = t.env_rc in
  D.adopt_publication st t p ~weight

let in_transit t =
  let (Rc ((module D), st)) = t.env_rc in
  D.anchors st

(* --- observability shims shared by {!Lfrc} and the mode implementations ---

   A retry bumps its counter and, when tracing/profiling is on, charges
   the innermost span. The hot retry loops stage the retry *count* in
   the loop's burst accumulator and record it once after the loop
   ([Metrics.add] — totals identical to a per-retry [incr]); only the
   per-event sinks (tracer timeline, profiler frame charge) run per
   retry, behind the one branch on [per_retry], decided when the
   environment is made. *)

let retried env counter =
  if env.per_retry then begin
    Tracer.emit env.env_tracer Retry (Metrics.key_name counter);
    if Profile.enabled env.env_profile then
      Spans.charge env.env_spans env.env_profile ~retry:true
  end

let retry env counter =
  Metrics.incr env.env_metrics counter;
  retried env counter

let record_retries env counter burst =
  if burst > 0 then Metrics.add env.env_metrics counter burst

(* [counter] separates eager frees (destroy paths) from deferred-queue
   frees, the paper-§7 distinction the metrics surface. *)
let free_obj env counter p =
  Metrics.incr env.env_metrics counter;
  Heap.free env.env_heap p

(* --- the deferred-destroy queue --- *)

let defer t p =
  Mutex.lock t.pending_lock;
  Queue.add p t.pending;
  let depth = Queue.length t.pending in
  Mutex.unlock t.pending_lock;
  Metrics.incr t.env_metrics k_deferred;
  Metrics.set_gauge t.env_metrics k_deferred_depth depth

let drain_deferred t ~max =
  Mutex.lock t.pending_lock;
  let rec go n acc =
    if (max >= 0 && n >= max) || Queue.is_empty t.pending then List.rev acc
    else go (n + 1) (Queue.pop t.pending :: acc)
  in
  let out = go 0 [] in
  let depth = Queue.length t.pending in
  Mutex.unlock t.pending_lock;
  if out <> [] then Metrics.set_gauge t.env_metrics k_deferred_depth depth;
  out

let deferred_pending t =
  Mutex.lock t.pending_lock;
  let n = Queue.length t.pending in
  Mutex.unlock t.pending_lock;
  n

(* --- the destroy, publication and locals registries ---

   Each thread's entries form a stack, newest on top, under the stack's
   own lock. An end removes the newest matching entry (nearly always the
   top). The registry-wide readers lock one thread's stack at a time.
   The lists handed out are newest first per thread; adoption lists the
   last-listed thread's entries first. *)

let begin_destroy t p =
  let d = Per_thread.get t.destroying (Lfrc_sched.Sched.slot ()) in
  Mutex.lock d.des_lock;
  Int_stack.push d.des_stack p;
  Mutex.unlock d.des_lock

let end_destroy t p =
  let d = Per_thread.get t.destroying (Lfrc_sched.Sched.slot ()) in
  Mutex.lock d.des_lock;
  let i = Int_stack.find_newest d.des_stack p in
  if i >= 0 then Int_stack.remove_at d.des_stack i;
  Mutex.unlock d.des_lock

let destroying_now t =
  let ds = ref [] in
  Array.iter
    (fun d ->
      Mutex.lock d.des_lock;
      ds := Int_stack.to_list d.des_stack @ !ds;
      Mutex.unlock d.des_lock)
    (Per_thread.made t.destroying);
  !ds

(* Surrender the destroy-registry entries of crashed threads: each entry is
   one distinct committed-but-unfinished drop (duplicates are multiple
   pending drops — do NOT dedupe). *)
let adopt_destroying t ~tids =
  let out = ref [] in
  List.iter
    (fun tid ->
      match Per_thread.of_tid t.destroying tid with
      | Some d ->
          Mutex.lock d.des_lock;
          out := Int_stack.to_list d.des_stack @ !out;
          d.des_stack.len <- 0;
          Mutex.unlock d.des_lock
      | None -> ())
    tids;
  !out

let begin_publish t ~weight p =
  if p <> Heap.null then begin
    let s = Per_thread.get t.publishing (Lfrc_sched.Sched.slot ()) in
    Mutex.lock s.pub_lock;
    Int_stack.push s.pub_addrs p;
    Int_stack.push s.pub_weights weight;
    Mutex.unlock s.pub_lock
  end

let end_publish t p =
  if p <> Heap.null then begin
    let s = Per_thread.get t.publishing (Lfrc_sched.Sched.slot ()) in
    Mutex.lock s.pub_lock;
    let i = Int_stack.find_newest s.pub_addrs p in
    if i >= 0 then begin
      Int_stack.remove_at s.pub_addrs i;
      Int_stack.remove_at s.pub_weights i
    end;
    Mutex.unlock s.pub_lock
  end

let publishing_now t =
  let ps = ref [] in
  Array.iter
    (fun s ->
      Mutex.lock s.pub_lock;
      ps := Int_stack.to_list s.pub_addrs @ !ps;
      Mutex.unlock s.pub_lock)
    (Per_thread.made t.publishing);
  !ps

let adopt_publications t ~tids =
  let out = ref [] in
  List.iter
    (fun tid ->
      match Per_thread.of_tid t.publishing tid with
      | Some s ->
          Mutex.lock s.pub_lock;
          out :=
            List.combine
              (Int_stack.to_list s.pub_addrs)
              (Int_stack.to_list s.pub_weights)
            @ !out;
          s.pub_addrs.len <- 0;
          s.pub_weights.len <- 0;
          Mutex.unlock s.pub_lock
      | None -> ())
    tids;
  !out

type local_frame = int

let register_locals t ~view ~take =
  let tid = Lfrc_sched.Sched.tid () in
  Mutex.lock t.local_frames_lock;
  t.local_frame_ctr <- t.local_frame_ctr + 1;
  let id = t.local_frame_ctr in
  t.local_frames <-
    { fr_id = id; fr_tid = tid; fr_view = view; fr_take = take }
    :: t.local_frames;
  Mutex.unlock t.local_frames_lock;
  id

let unregister_locals t id =
  Mutex.lock t.local_frames_lock;
  t.local_frames <- List.filter (fun f -> f.fr_id <> id) t.local_frames;
  Mutex.unlock t.local_frames_lock

(* Take over the local frames of crashed threads: surrender each frame's
   references and unregister it, returning (owner tid, refs) per frame. *)
let adopt_locals t ~tids =
  Mutex.lock t.local_frames_lock;
  let mine, rest =
    List.partition (fun f -> List.mem f.fr_tid tids) t.local_frames
  in
  t.local_frames <- rest;
  Mutex.unlock t.local_frames_lock;
  List.map (fun f -> (f.fr_tid, f.fr_take ())) mine

let on_recover t hook = t.recover_hooks <- hook :: t.recover_hooks

let run_recovery_hooks t ~crashed =
  List.fold_left (fun acc hook -> acc + hook ~crashed) 0 t.recover_hooks

let anchors t =
  Mutex.lock t.local_frames_lock;
  let frames = t.local_frames in
  Mutex.unlock t.local_frames_lock;
  let locals = List.concat_map (fun f -> f.fr_view ()) frames in
  Mutex.lock t.pending_lock;
  let pend = Queue.fold (fun acc p -> p :: acc) [] t.pending in
  Mutex.unlock t.pending_lock;
  (* The count-delivery mode's in-transit addresses (parked or staged
     deltas, pouched weight) are mid accounting transfer, so they are
     republished for the auditor exactly like an in-flight destroy; the
     same goes for pre-CAS publications. *)
  destroying_now t @ pend @ in_transit t @ publishing_now t @ locals
