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

type t = {
  env_heap : Heap.t;
  env_dcas : Lfrc_atomics.Dcas.t;
  env_policy : policy;
  env_rc : rc;
  pending : int Queue.t;
  pending_lock : Mutex.t;
  (* Objects a destroy is in the middle of tearing down, keyed by simulated
     thread id. While a destroy runs, the reference being dropped is held
     only in OCaml locals, invisible to the heap; this registry republishes
     it so the post-mortem fault auditor can account for it if the
     destroying thread crashes. Deliberately NOT a heap frame: heap frames
     feed the tracing collectors and invariant checkers, whose semantics
     must not change under LFRC. *)
  destroying : (int, int list ref) Hashtbl.t;
  destroying_lock : Mutex.t;
  (* Speculative count increments not yet justified by a heap-visible
     pointer: store/cas/dcas raise the new pointer's count before the
     publishing CAS, and a crash in between leaves a +1 no destroy will
     ever compensate. Keyed by thread id so recovery can compensate a
     crashed thread's pending publications. *)
  publishing : (int, (int * int) list ref) Hashtbl.t;
  publishing_lock : Mutex.t;
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
  env_lineage : Lfrc_obs.Lineage.t;
  env_profile : Profile.t;
  env_blame : Blame.t;
  env_sanitizer : Shadow.t;
  env_symbolic : bool;
}

(* The environment's count-delivery implementation, packed with its
   mode-private state. *)
and rc = Rc : (module DELIVERY with type env = t and type state = 's) * 's -> rc

(* The one fan-out from substrate steps to the observability layers. Each
   step reports here once, and the order inside each arm is part of the
   contract: the tracer and blame outputs pin it. *)
let observe_dcas ?(metrics = Metrics.disabled) ?(tracer = Tracer.disabled)
    ?(profile = Profile.disabled) ?(blame = Blame.disabled)
    ?(sanitize = Shadow.disabled) d =
  let module Dcas = Lfrc_atomics.Dcas in
  let attempted kind ok =
    let attempts, failures, retry =
      match kind with
      | Blame.Cas -> ("dcas.cas_attempts", "dcas.cas_failures", "cas")
      | _ -> ("dcas.dcas_attempts", "dcas.dcas_failures", "dcas")
    in
    Metrics.incr metrics attempts;
    if not ok then begin
      Metrics.incr metrics failures;
      Tracer.emit tracer Retry retry;
      Profile.dcas_retry profile
    end
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
               Metrics.incr metrics "dcas.reads");
           on_write =
             (fun c v ->
               Shadow.on_write sanitize c v;
               Blame.stamp blame Blame.Write (Cell.id c);
               Metrics.incr metrics "dcas.writes");
           on_rmw =
             (fun c ->
               Shadow.on_rmw sanitize c;
               Blame.stamp blame Blame.Rmw (Cell.id c);
               Metrics.incr metrics "dcas.rmw");
           on_cas =
             (fun c ~old_v ~new_v ~ok ->
               Shadow.on_cas sanitize c ~old_v ~new_v ~ok;
               if ok then Blame.stamp blame Blame.Cas (Cell.id c)
               else Blame.charge blame Blame.Cas (Cell.id c);
               attempted Blame.Cas ok);
           on_dcas =
             (fun c0 c1 ~old0 ~old1 ~new0 ~new1 ~ok ->
               Shadow.on_dcas sanitize c0 c1 ~old0 ~old1 ~new0 ~new1 ~ok;
               if Blame.enabled blame then
                 if ok then begin
                   Blame.stamp blame Blame.Dcas (Cell.id c0);
                   Blame.stamp blame Blame.Dcas (Cell.id c1)
                 end
                 else
                   (* The culprit is whichever word failed its compare; a
                      raw peek (no Sched.point) keeps the schedule
                      identical to a blame-free run. With both words
                      stale, blaming the first is still a true cause. *)
                   Blame.charge blame Blame.Dcas
                     (Cell.id (if Cell.get c0 <> old0 then c0 else c1));
               attempted Blame.Dcas ok;
               if mcas then begin
                 Metrics.incr metrics "mcas.attempt";
                 Metrics.incr metrics
                   (if ok then "mcas.success" else "mcas.fail")
               end);
           on_spurious_cas =
             (fun () ->
               Metrics.incr metrics "dcas.spurious_cas";
               Tracer.emit tracer Fault "spurious-cas";
               attempted Blame.Cas false;
               Blame.charge_spurious blame Blame.Cas);
           on_spurious_dcas =
             (fun () ->
               Metrics.incr metrics "dcas.spurious_dcas";
               Tracer.emit tracer Fault "spurious-dcas";
               Blame.charge_spurious blame Blame.Dcas;
               attempted Blame.Dcas false);
         })

let make ?dcas_impl ?(policy = Iterative) ?(gc_threshold = 0)
    ?(metrics = Metrics.disabled) ?(tracer = Tracer.disabled)
    ?(lineage = Lfrc_obs.Lineage.disabled) ?(profile = Profile.disabled)
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
  (* A blame registry may outlive several environments; cell ids restart
     per heap, so stale stamps must be dropped before they can be blamed
     for this run's failures. *)
  Blame.new_run blame;
  observe_dcas ~metrics ~tracer ~profile ~blame ~sanitize d;
  Shadow.attach sanitize ~heap ~metrics ~tracer ~profile;
  let obs_on =
    Metrics.enabled metrics || Tracer.enabled tracer
    || Lfrc_obs.Lineage.enabled lineage
  in
  let san_on = Shadow.enabled sanitize in
  if obs_on || san_on then
    Heap.set_observer heap
      (Some
         (fun ev ->
           if obs_on then
             (match ev with
             | Heap.Obs_alloc { p; gen; live } ->
                 Metrics.incr metrics "heap.allocs";
                 Metrics.set_gauge metrics "heap.live" live;
                 Lfrc_obs.Lineage.record lineage ~addr:p
                   (Lfrc_obs.Lineage.Alloc { gen })
             | Heap.Obs_free { p; gen; live } ->
                 Metrics.incr metrics "heap.frees";
                 Metrics.set_gauge metrics "heap.live" live;
                 Tracer.emit tracer ~arg:p Free "free";
                 Lfrc_obs.Lineage.record lineage ~addr:p
                   (Lfrc_obs.Lineage.Free { gen }));
           Shadow.on_heap_event sanitize ev));
  {
    env_heap = heap;
    env_dcas = d;
    env_policy = policy;
    env_rc = rc;
    pending = Queue.create ();
    pending_lock = Mutex.create ();
    destroying = Hashtbl.create 8;
    destroying_lock = Mutex.create ();
    publishing = Hashtbl.create 8;
    publishing_lock = Mutex.create ();
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
    env_symbolic = symbolic;
  }

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
   the innermost span. The hot retry loops hoist the obs-enabled check
   out of the loop: the retry *count* is staged in the loop's burst
   accumulator and recorded once after the loop ([Metrics.add] — totals
   identical to the per-retry [incr] they replace), and only the
   per-event sinks (tracer timeline, profiler frame charge) still run per
   retry — behind a single branch computed before the first attempt.
   With observability off a retry costs nothing at all. *)

let retry env counter =
  Metrics.incr env.env_metrics counter;
  Tracer.emit env.env_tracer Retry counter;
  Profile.op_retry env.env_profile

let retry_slow env counter =
  Tracer.emit env.env_tracer Retry counter;
  Profile.op_retry env.env_profile

let per_retry_obs env =
  Tracer.enabled env.env_tracer || Profile.enabled env.env_profile

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
  Metrics.incr t.env_metrics "lfrc.deferred";
  Metrics.set_gauge t.env_metrics "lfrc.deferred_depth" depth

let drain_deferred t ~max =
  Mutex.lock t.pending_lock;
  let rec go n acc =
    if (max >= 0 && n >= max) || Queue.is_empty t.pending then List.rev acc
    else go (n + 1) (Queue.pop t.pending :: acc)
  in
  let out = go 0 [] in
  let depth = Queue.length t.pending in
  Mutex.unlock t.pending_lock;
  if out <> [] then Metrics.set_gauge t.env_metrics "lfrc.deferred_depth" depth;
  out

let deferred_pending t =
  Mutex.lock t.pending_lock;
  let n = Queue.length t.pending in
  Mutex.unlock t.pending_lock;
  n

(* --- the destroy, publication and locals registries --- *)

let begin_destroy t p =
  let tid = Lfrc_sched.Sched.tid () in
  Mutex.lock t.destroying_lock;
  (match Hashtbl.find_opt t.destroying tid with
  | Some l -> l := p :: !l
  | None -> Hashtbl.add t.destroying tid (ref [ p ]));
  Mutex.unlock t.destroying_lock

let end_destroy t p =
  let tid = Lfrc_sched.Sched.tid () in
  Mutex.lock t.destroying_lock;
  (match Hashtbl.find_opt t.destroying tid with
  | Some l ->
      let rec remove = function
        | [] -> []
        | x :: rest -> if x = p then rest else x :: remove rest
      in
      l := remove !l
  | None -> ());
  Mutex.unlock t.destroying_lock

let destroying_now t =
  Mutex.lock t.destroying_lock;
  let ds = Hashtbl.fold (fun _ l acc -> !l @ acc) t.destroying [] in
  Mutex.unlock t.destroying_lock;
  ds

(* Surrender the destroy-registry entries of crashed threads: each entry is
   one distinct committed-but-unfinished drop (duplicates are multiple
   pending drops — do NOT dedupe). *)
let adopt_destroying t ~tids =
  Mutex.lock t.destroying_lock;
  let out = ref [] in
  List.iter
    (fun tid ->
      match Hashtbl.find_opt t.destroying tid with
      | Some l ->
          out := !l @ !out;
          Hashtbl.remove t.destroying tid
      | None -> ())
    tids;
  Mutex.unlock t.destroying_lock;
  !out

let begin_publish ?(weight = 1) t p =
  if p <> Heap.null then begin
    let tid = Lfrc_sched.Sched.tid () in
    Mutex.lock t.publishing_lock;
    (match Hashtbl.find_opt t.publishing tid with
    | Some l -> l := (p, weight) :: !l
    | None -> Hashtbl.add t.publishing tid (ref [ (p, weight) ]));
    Mutex.unlock t.publishing_lock
  end

let end_publish t p =
  if p <> Heap.null then begin
    let tid = Lfrc_sched.Sched.tid () in
    Mutex.lock t.publishing_lock;
    (match Hashtbl.find_opt t.publishing tid with
    | Some l ->
        let rec remove = function
          | [] -> []
          | (x, _) :: rest when x = p -> rest
          | x :: rest -> x :: remove rest
        in
        l := remove !l
    | None -> ());
    Mutex.unlock t.publishing_lock
  end

let publishing_now t =
  Mutex.lock t.publishing_lock;
  let ps =
    Hashtbl.fold (fun _ l acc -> List.map fst !l @ acc) t.publishing []
  in
  Mutex.unlock t.publishing_lock;
  ps

let adopt_publications t ~tids =
  Mutex.lock t.publishing_lock;
  let out = ref [] in
  List.iter
    (fun tid ->
      match Hashtbl.find_opt t.publishing tid with
      | Some l ->
          out := !l @ !out;
          Hashtbl.remove t.publishing tid
      | None -> ())
    tids;
  Mutex.unlock t.publishing_lock;
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
