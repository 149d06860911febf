module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module Metrics = Lfrc_obs.Metrics
module Tracer = Lfrc_obs.Tracer
module Lineage = Lfrc_obs.Lineage
module Blame = Lfrc_obs.Blame
module Shadow = Lfrc_sanitize.Shadow

type ptr = Heap.ptr

let null = Heap.null

exception Symbolic_bypass of string

(* Under a symbolic (analysis) environment no real LFRC operation may run:
   structure code is being recorded through an {!Ops_intf.OPS} instance,
   and a direct call here means the code bypassed its functor argument.
   Raising identifies the offending operation to the analyser. *)
let guard env op = if Env.symbolic env then raise (Symbolic_bypass op)

(* Observability shims. Every public operation counts itself under an
   [lfrc.*] series and, when tracing/profiling/lineage/blame is on, runs
   its body inside a span ({!Env_base.span_begin}) that closes even on
   the exceptional (OOM) paths. The span key doubles as the counter and
   the call site every layer attributes to, so a count transition or a
   failed DCAS underneath always knows which operation it belongs to.
   With every span layer off an operation applies its body directly —
   one branch, no closure — the policy {!Env.create} documents; with one
   on, the body runs between [span_begin] and [span_end] in the
   operation itself, so opening a span builds no closure either. Retry
   accounting is shared with the mode implementations
   ({!Env_base.per_retry_obs}). *)

let retry_slow = Env_base.retry_slow
let per_retry_obs = Env_base.per_retry_obs
let record_retries = Env_base.record_retries
let free_obj = Env_base.free_obj

let k_alloc = Metrics.key "lfrc.alloc"
let k_alloc_oom = Metrics.key "lfrc.alloc_oom"
let k_destroy = Metrics.key "lfrc.destroy"
let k_load = Metrics.key "lfrc.load"
let k_store = Metrics.key "lfrc.store"
let k_store_alloc = Metrics.key "lfrc.store_alloc"
let k_copy = Metrics.key "lfrc.copy"
let k_dcas = Metrics.key "lfrc.dcas"
let k_cas = Metrics.key "lfrc.cas"
let k_dcas_ptr_val = Metrics.key "lfrc.dcas_ptr_val"
let k_frees = Env_base.k_frees
let k_deferred_frees = Metrics.key "lfrc.deferred_frees"
let k_load_retry = Metrics.key "lfrc.load_retry"
let k_store_retry = Metrics.key "lfrc.store_retry"
let k_load_retries = Metrics.key "lfrc.load.retries"
let k_store_retries = Metrics.key "lfrc.store.retries"

(* Count one operation; answer whether it runs in a span. *)
let spanned env key =
  Metrics.incr (Env.metrics env) key;
  Env_base.spans_on env

let span_begin = Env_base.span_begin
let span_end = Env_base.span_end

(* A spanned body raised [e]: close the span, then re-raise [e] with its
   backtrace. *)
let span_raise env key e =
  let bt = Printexc.get_raw_backtrace () in
  span_end env key;
  Printexc.raise_with_backtrace e bt

(* --- count delivery ---

   Everything that differs between the rc modes sits behind the
   environment's {!Env_base.DELIVERY} implementation, chosen once at
   [Env.create]; the Figure-2 bodies below are written once and call it
   at the marked points. Each wrapper unpacks the implementation — two
   loads, no allocation. *)

let borrow env ~src a =
  let (Env_base.Rc ((module D), st)) = Env_base.rc env in
  D.borrow st env ~src a

let load_mint env =
  let (Env_base.Rc ((module D), st)) = Env_base.rc env in
  D.load_mint st

let loaded env ~src a ~old_rc =
  let (Env_base.Rc ((module D), st)) = Env_base.rc env in
  D.loaded st env ~src a ~old_rc

(* A raise ahead of a publishing CAS exists before any heap-visible
   pointer justifies it, so the mode records the publication in the same
   atomic step it lands. The caller ends the publication once the CAS
   resolves — on success atomically with it, on failure atomically with
   retracting the raise — so no crash can separate the speculative count
   from its record. *)
let publish env p =
  if p <> null then begin
    let (Env_base.Rc ((module D), st)) = Env_base.rc env in
    D.publish st env p
  end

let acquire_copy env p =
  let (Env_base.Rc ((module D), st)) = Env_base.rc env in
  D.acquire_copy st env p

let installed env ~cell ~old v ~owned =
  let (Env_base.Rc ((module D), st)) = Env_base.rc env in
  D.installed st env ~cell ~old v ~owned

let retract env p =
  let (Env_base.Rc ((module D), st)) = Env_base.rc env in
  D.retract st env p

let drop env p =
  let (Env_base.Rc ((module D), st)) = Env_base.rc env in
  D.drop st env p

let release env p =
  let (Env_base.Rc ((module D), st)) = Env_base.rc env in
  D.release st env p

let claim env ~cell child =
  let (Env_base.Rc ((module D), st)) = Env_base.rc env in
  D.claim st env ~cell child

let nested_drop_span env =
  let (Env_base.Rc ((module D), _)) = Env_base.rc env in
  D.nested_drop_span

let recursive_teardown env =
  let (Env_base.Rc ((module D), _)) = Env_base.rc env in
  D.recursive_teardown

let flush_counts env =
  let (Env_base.Rc ((module D), st)) = Env_base.rc env in
  D.flush st env

let add_to_rc env p v =
  guard env "add_to_rc";
  Rc_eager.add_to_rc env p v

let alloc env layout =
  guard env "alloc";
  if spanned env k_alloc then begin
    span_begin env k_alloc;
    match Heap.alloc (Env.heap env) layout with
    | p ->
        span_end env k_alloc;
        p
    | exception e -> span_raise env k_alloc e
  end
  else Heap.alloc (Env.heap env) layout

(* Allocation with graceful OOM: a simulated allocation failure surfaces as
   a result before any count or cell is touched, so the caller can abort
   its operation with the heap intact. *)
let try_alloc_body env layout =
  match Heap.alloc (Env.heap env) layout with
  | p -> Ok p
  | exception Heap.Simulated_oom ->
      Metrics.incr (Env.metrics env) k_alloc_oom;
      Tracer.emit (Env.tracer env) Fault "oom";
      Error `Out_of_memory

let try_alloc env layout =
  guard env "try_alloc";
  if spanned env k_alloc then begin
    span_begin env k_alloc;
    match try_alloc_body env layout with
    | r ->
        span_end env k_alloc;
        r
    | exception e -> span_raise env k_alloc e
  end
  else try_alloc_body env layout

(* Destroying the last pointer to an object frees it and destroys the
   pointers it contains, under one of three policies. Every path drops a
   single reference with the mode's [release] (exact zero-detect), which
   reports whether the object died.

   From the moment a destroy is committed to dropping a reference until
   the object is freed (or handed to the deferred queue), that reference
   exists only in OCaml locals — invisible to the heap. [Env.begin_destroy]
   republishes the object for the post-mortem fault auditor covering that
   whole span; [release] consumes the registration when the object
   survives. Registry calls are mutex-only (no yield points), so no
   simulated crash can separate a reference from its registration.

   Once an object's count reaches zero it is dead: only its destroyer ever
   reads its pointer slots again. All destroy paths therefore null each
   slot in the same atomic step that commits the child's drop (registry
   entry, parked delta, or work-list push) — so a dead parent's remaining
   non-null slots are exactly the drops not yet committed, and an adopter
   resuming a crashed destroy never double-drops a child. *)

(* Take [child] out of a dead parent's [cell]: register its drop (a dead
   child outlives its parent's registration, so it gets its own), let the
   mode claim what the slot carried, null the slot — one atomic step. *)
let take_child env cell child =
  Env.begin_destroy env child;
  claim env ~cell child;
  Cell.set cell null

(* Figure 2, lines 13..15: recursive teardown, faithful to the paper. *)
let rec destroy_recursive_registered env p =
  if release env p then begin
    let heap = Env.heap env in
    let d = Env.dcas env in
    let n = Heap.n_ptr_slots heap p in
    for i = 0 to n - 1 do
      let cell = Heap.ptr_cell heap p i in
      let child = Dcas.read d cell in
      if child <> null then begin
        take_child env cell child;
        destroy_recursive_registered env child
      end
    done;
    free_obj env k_frees p;
    Env.end_destroy env p
  end

(* Same semantics with an explicit work list, for a registered object
   that just died: survives arbitrarily long chains of dead objects. *)
let teardown env p =
  let heap = Env.heap env in
  let d = Env.dcas env in
  let work = ref [ p ] in
  while !work <> [] do
    match !work with
    | [] -> ()
    | q :: rest ->
        work := rest;
        let n = Heap.n_ptr_slots heap q in
        for i = 0 to n - 1 do
          let cell = Heap.ptr_cell heap q i in
          let child = Dcas.read d cell in
          if child <> null then begin
            take_child env cell child;
            if release env child then work := child :: !work
          end
        done;
        free_obj env k_frees q;
        Env.end_destroy env q
  done

(* Deferred policy: dead objects go to the environment's queue; each later
   LFRC operation frees a bounded number ([pump]), so no single operation
   pays for a long chain (paper §7, incremental collection). *)
let defer_dead env p =
  Env_base.record_lineage env ~addr:p Lineage.Defer;
  Env.defer env p

let pump_deferred env ~budget =
  (* Keep draining until the budget is spent: processing a dead object can
     enqueue its children, and those count against the same slice. *)
  let heap = Env.heap env in
  let d = Env.dcas env in
  let freed = ref 0 in
  let exhausted = ref false in
  while (not !exhausted) && (budget < 0 || !freed < budget) do
    match Env.drain_deferred env ~max:1 with
    | [] -> exhausted := true
    | q :: _ ->
        (* The dequeue and this registration are atomic, so [q] is never
           anchored by neither the queue nor the registry. *)
        Env.begin_destroy env q;
        (* Destruction ownership hands off through the queue: the pumping
           thread re-owns the dying object so its teardown reads are not
           mistaken for third-party use-after-retire. *)
        Shadow.note_dying (Env.sanitizer env) q;
        incr freed;
        let n = Heap.n_ptr_slots heap q in
        for i = 0 to n - 1 do
          let cell = Heap.ptr_cell heap q i in
          let child = Dcas.read d cell in
          if child <> null then begin
            take_child env cell child;
            if release env child then begin
              defer_dead env child;
              Env.end_destroy env child
            end
          end
        done;
        free_obj env k_deferred_frees q;
        Env.end_destroy env q
  done;
  !freed

(* Commit a drop whose registry entry is in place (placed atomically with
   the step that took the reference); [p <> null]. *)
let commit env p =
  match Env.policy env with
  | Env.Deferred { budget_per_op } ->
      if release env p then begin
        defer_dead env p;
        Env.end_destroy env p
      end;
      ignore (pump_deferred env ~budget:budget_per_op)
  | Env.Recursive when recursive_teardown env ->
      destroy_recursive_registered env p
  | Env.Recursive | Env.Iterative -> if release env p then teardown env p

let destroy_registered env p =
  Metrics.incr (Env.metrics env) k_destroy;
  commit env p

let flush env = flush_counts env + pump_deferred env ~budget:(-1)

(* LFRCDestroy (Figure 2, lines 13..15). *)
let destroy_body env p =
  if p <> null then begin
    if drop env p then commit env p
  end
  else
    match Env.policy env with
    | Env.Deferred { budget_per_op } ->
        ignore (pump_deferred env ~budget:budget_per_op)
    | Env.Recursive | Env.Iterative -> ()

let destroy env p =
  guard env "destroy";
  if spanned env k_destroy then begin
    span_begin env k_destroy;
    match destroy_body env p with
    | () -> span_end env k_destroy
    | exception e -> span_raise env k_destroy e
  end
  else destroy_body env p

(* Drop a reference a winning CAS displaced ([counted]), or one handed back
   by a failed publication or a crashed teardown: as its own
   [lfrc.destroy] operation, or registered and committed in place, as the
   mode's [nested_drop_span] says. *)
let drop_taken env p ~counted =
  if nested_drop_span env then destroy env p
  else if p <> null then begin
    Env.begin_destroy env p;
    if counted then Metrics.incr (Env.metrics env) k_destroy;
    commit env p
  end

(* LFRCLoad (Figure 2, lines 1..12). This and the retry loops below are
   top-level functions, so an operation builds no closure. [load_retry]
   returns its retry burst. *)
let rec load_retry env d ~src ~dest ~slow burst =
  let a = Dcas.read d src in
  if a = null then begin
    dest := null;
    burst
  end
  else if borrow env ~src a then begin
    dest := a;
    burst
  end
  else begin
    let rc = Heap.rc_cell (Env.heap env) a in
    Blame.bind_owner (Env.blame env) ~cell:(Cell.id rc) ~addr:a;
    let r = Dcas.read d rc in
    (* Increment the count while atomically checking that [src] still
       points at [a]: the object cannot have been freed and recycled
       under us if the pointer still exists. *)
    if Dcas.dcas d src rc ~old0:a ~old1:r ~new0:a ~new1:(r + load_mint env)
    then begin
      loaded env ~src a ~old_rc:r;
      dest := a;
      burst
    end
    else begin
      if slow then retry_slow env k_load_retry;
      load_retry env d ~src ~dest ~slow (burst + 1)
    end
  end

let load_body env ~src ~dest =
  let olddest = !dest in
  let burst =
    load_retry env (Env.dcas env) ~src ~dest ~slow:(per_retry_obs env) 0
  in
  record_retries env k_load_retry burst;
  (* Every load contributes its burst — zeros included — so the retry
     histogram is populated even in uncontended runs. *)
  Metrics.observe (Env.metrics env) k_load_retries burst;
  destroy env olddest

let load env ~src ~dest =
  guard env "load";
  if spanned env k_load then begin
    span_begin env k_load;
    match load_body env ~src ~dest with
    | () -> span_end env k_load
    | exception e -> span_raise env k_load e
  end
  else load_body env ~src ~dest

(* LFRCStore (Figure 2, lines 21..28). *)
let rec store_retry env d ~dst v ~slow burst =
  let oldval = Dcas.read d dst in
  if Dcas.cas d dst oldval v then begin
    (* No yield since the CAS: the +1 is now heap-justified, so ending
       the publication — and the mode's slot bookkeeping — is atomic
       with it. *)
    Env.end_publish env v;
    installed env ~cell:dst ~old:oldval v ~owned:false;
    record_retries env k_store_retry burst;
    Metrics.observe (Env.metrics env) k_store_retries burst;
    drop_taken env oldval ~counted:true
  end
  else begin
    if slow then retry_slow env k_store_retry;
    store_retry env d ~dst v ~slow (burst + 1)
  end

let store_body env ~dst v =
  publish env v;
  store_retry env (Env.dcas env) ~dst v ~slow:(per_retry_obs env) 0

let store env ~dst v =
  guard env "store";
  if spanned env k_store then begin
    span_begin env k_store;
    match store_body env ~dst v with
    | () -> span_end env k_store
    | exception e -> span_raise env k_store e
  end
  else store_body env ~dst v

(* LFRCStoreAlloc (paper Figure 1, line 35): consume the allocation's
   count instead of raising it. The source is a (registered-local) ref,
   cleared in the same atomic step as the winning CAS, so the
   allocation's count has exactly one owner — the local or the heap slot
   — at every yield point. *)
let rec store_alloc_retry env d ~dst r v ~slow burst =
  let oldval = Dcas.read d dst in
  if Dcas.cas d dst oldval v then begin
    r := null;
    installed env ~cell:dst ~old:oldval v ~owned:true;
    record_retries env k_store_retry burst;
    drop_taken env oldval ~counted:true
  end
  else begin
    if slow then retry_slow env k_store_retry;
    store_alloc_retry env d ~dst r v ~slow (burst + 1)
  end

let store_alloc_body env ~dst r =
  store_alloc_retry env (Env.dcas env) ~dst r !r ~slow:(per_retry_obs env) 0

let store_alloc_from env ~dst r =
  guard env "store_alloc";
  if spanned env k_store_alloc then begin
    span_begin env k_store_alloc;
    match store_alloc_body env ~dst r with
    | () -> span_end env k_store_alloc
    | exception e -> span_raise env k_store_alloc e
  end
  else store_alloc_body env ~dst r

let store_alloc env ~dst v = store_alloc_from env ~dst (ref v)

(* LFRCCopy (Figure 2, lines 29..32). *)
let copy_body env ~dest w =
  let published = acquire_copy env w in
  let old = !dest in
  dest := w;
  if published then Env.end_publish env w;
  destroy env old

let copy env ~dest w =
  guard env "copy";
  if spanned env k_copy then begin
    span_begin env k_copy;
    match copy_body env ~dest w with
    | () -> span_end env k_copy
    | exception e -> span_raise env k_copy e
  end
  else copy_body env ~dest w

(* A losing CAS's publication of [p] resolves: the mode keeps the unspent
   raise, or the caller drops it. *)
let unpublish env p =
  Env.end_publish env p;
  if not (retract env p) then drop_taken env p ~counted:false

(* LFRCDCAS (Figure 2, lines 33..39). *)
let dcas_body env c0 c1 ~old0 ~old1 ~new0 ~new1 =
  publish env new0;
  publish env new1;
  if Dcas.dcas (Env.dcas env) c0 c1 ~old0 ~old1 ~new0 ~new1 then begin
    Env.end_publish env new0;
    Env.end_publish env new1;
    installed env ~cell:c0 ~old:old0 new0 ~owned:false;
    installed env ~cell:c1 ~old:old1 new1 ~owned:false;
    (* Register BOTH committed drops atomically with the DCAS, then commit
       them one at a time: the second stays anchored while the first's
       cascade yields. *)
    if old0 <> null then Env.begin_destroy env old0;
    if old1 <> null then Env.begin_destroy env old1;
    if old0 <> null then destroy_registered env old0;
    if old1 <> null then destroy_registered env old1;
    true
  end
  else begin
    (* Resolve one publication at a time: [new1] stays registered across
       [new0]'s drop cascade (which can yield), so a crash inside it never
       leaves [new1]'s speculative raise unanchored. *)
    unpublish env new0;
    unpublish env new1;
    false
  end

let dcas env c0 c1 ~old0 ~old1 ~new0 ~new1 =
  guard env "dcas";
  if spanned env k_dcas then begin
    span_begin env k_dcas;
    match dcas_body env c0 c1 ~old0 ~old1 ~new0 ~new1 with
    | won ->
        span_end env k_dcas;
        won
    | exception e -> span_raise env k_dcas e
  end
  else dcas_body env c0 c1 ~old0 ~old1 ~new0 ~new1

(* The single-pointer tail of LFRCCAS and [dcas_ptr_val]: [won] is the
   outcome of the CAS that tried to replace [old_ptr] with the published
   [new_ptr] on [cell]. *)
let resolve env cell ~old_ptr ~new_ptr won =
  if won then begin
    Env.end_publish env new_ptr;
    installed env ~cell ~old:old_ptr new_ptr ~owned:false;
    drop_taken env old_ptr ~counted:true
  end
  else unpublish env new_ptr;
  won

(* LFRCCAS: the paper's "obvious simplification" of LFRCDCAS. *)
let cas_body env c ~old_ptr ~new_ptr =
  publish env new_ptr;
  resolve env c ~old_ptr ~new_ptr (Dcas.cas (Env.dcas env) c old_ptr new_ptr)

let cas env c ~old_ptr ~new_ptr =
  guard env "cas";
  if spanned env k_cas then begin
    span_begin env k_cas;
    match cas_body env c ~old_ptr ~new_ptr with
    | won ->
        span_end env k_cas;
        won
    | exception e -> span_raise env k_cas e
  end
  else cas_body env c ~old_ptr ~new_ptr

(* Extension: DCAS over one pointer cell and one plain-value cell.
   Reference counting applies to the pointer side only. *)
let dcas_ptr_val_body env ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val
    ~new_val =
  publish env new_ptr;
  resolve env ptr_cell ~old_ptr ~new_ptr
    (Dcas.dcas (Env.dcas env) ptr_cell val_cell ~old0:old_ptr ~old1:old_val
       ~new0:new_ptr ~new1:new_val)

let dcas_ptr_val env ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val ~new_val =
  guard env "dcas_ptr_val";
  if spanned env k_dcas_ptr_val then begin
    span_begin env k_dcas_ptr_val;
    match
      dcas_ptr_val_body env ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val
        ~new_val
    with
    | won ->
        span_end env k_dcas_ptr_val;
        won
    | exception e -> span_raise env k_dcas_ptr_val e
  end
  else
    dcas_ptr_val_body env ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val
      ~new_val

(* Finish a destroy whose owner crashed after taking the count to zero
   (used by crash recovery). Under the slot-nulling discipline every
   committed child drop also nulled its slot, so the husk's remaining
   non-null slots are exactly the drops never committed: perform each
   one, then free the husk. The mode claims each child's slot first, so
   (in weighted mode) the weight ledger balances exactly as in a live
   teardown. *)
let finish_teardown env p =
  let heap = Env.heap env in
  for i = 0 to Heap.n_ptr_slots heap p - 1 do
    let cell = Heap.ptr_cell heap p i in
    let child = Cell.get cell in
    if child <> null then begin
      claim env ~cell child;
      Cell.set cell null;
      drop_taken env child ~counted:false
    end
  done;
  free_obj env k_frees p

let with_locals env n f =
  let locals = Array.init n (fun _ -> ref null) in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun r -> destroy env !r) locals)
    (fun () -> f locals)

let read_ptr env c = Dcas.read (Env.dcas env) c
