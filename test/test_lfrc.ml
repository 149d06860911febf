(* Tests for the core LFRC operations (paper Figure 2): the precise count
   effect of each operation, the weak invariant under concurrency, destroy
   policies, and qcheck properties over random object graphs. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Layout = Lfrc_simmem.Layout
module Lfrc = Lfrc_core.Lfrc
module Env = Lfrc_core.Env
module Report = Lfrc_simmem.Report
module Sched = Lfrc_sched.Sched

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let node = Layout.make ~name:"node" ~n_ptrs:2 ~n_vals:1

let fresh ?(dcas_impl = Lfrc_atomics.Dcas.Atomic_step) ?policy ?rc_mode
    ?metrics ?profile ?blame name =
  let heap = Heap.create ~name () in
  let env =
    Env.create ~dcas_impl ?policy ?rc_mode ?metrics ?profile ?blame heap
  in
  (env, heap)

let rc env p = Cell.get (Heap.rc_cell (Env.heap env) p)

(* --- Individual operations --- *)

let test_alloc_rc_one () =
  let env, heap = fresh "alloc" in
  let p = Lfrc.alloc env node in
  checki "constructor count" 1 (rc env p);
  checkb "live" true (Heap.is_live heap p)

let test_destroy_frees_at_zero () =
  let env, heap = fresh "destroy" in
  let p = Lfrc.alloc env node in
  Lfrc.destroy env p;
  checkb "freed" false (Heap.is_live heap p)

let test_destroy_null_noop () =
  let env, _ = fresh "destroy-null" in
  Lfrc.destroy env Heap.null

let test_destroy_recursive_children () =
  let env, heap = fresh "destroy-rec" in
  let parent = Lfrc.alloc env node in
  let child = Lfrc.alloc env node in
  Lfrc.store_alloc env ~dst:(Heap.ptr_cell heap parent 0) child;
  Lfrc.destroy env parent;
  checkb "child freed too" false (Heap.is_live heap child);
  checki "heap empty" 0 (Heap.live_count heap)

let test_destroy_shared_child_survives () =
  let env, heap = fresh "destroy-shared" in
  let p1 = Lfrc.alloc env node and p2 = Lfrc.alloc env node in
  let child = Lfrc.alloc env node in
  Lfrc.store env ~dst:(Heap.ptr_cell heap p1 0) child;
  Lfrc.store env ~dst:(Heap.ptr_cell heap p2 0) child;
  Lfrc.destroy env child (* drop the constructor reference *);
  checki "child counted twice" 2 (rc env child);
  Lfrc.destroy env p1;
  checkb "shared child survives" true (Heap.is_live heap child);
  checki "one count left" 1 (rc env child);
  Lfrc.destroy env p2;
  checkb "now freed" false (Heap.is_live heap child)

let test_load_increments () =
  let env, heap = fresh "load" in
  let src = Heap.root heap () in
  let p = Lfrc.alloc env node in
  Lfrc.store_alloc env ~dst:src p;
  checki "only the cell's count" 1 (rc env p);
  let dest = ref Heap.null in
  Lfrc.load env ~src ~dest;
  checki "loaded" p !dest;
  checki "count covers local" 2 (rc env p);
  Lfrc.destroy env !dest;
  checki "back to 1" 1 (rc env p)

let test_load_null () =
  let env, heap = fresh "load-null" in
  let src = Heap.root heap () in
  let p = Lfrc.alloc env node in
  let dest = ref p in
  (* loading null destroys the previous content of dest *)
  Lfrc.load env ~src ~dest;
  checki "dest null" Heap.null !dest;
  checkb "old referent freed" false (Heap.is_live heap p)

let test_load_replaces_old () =
  let env, heap = fresh "load-replace" in
  let src = Heap.root heap () in
  let a = Lfrc.alloc env node and b = Lfrc.alloc env node in
  Lfrc.store_alloc env ~dst:src a;
  let dest = ref Heap.null in
  Lfrc.load env ~src ~dest;
  Lfrc.store env ~dst:src b;
  (* the second load replaces dest's reference to a with one to b; that
     was a's last count, so a is reclaimed right here *)
  Lfrc.load env ~src ~dest;
  checki "dest is b" b !dest;
  checkb "a reclaimed by the load" false (Heap.is_live heap a);
  checki "b counted thrice" 3 (rc env b);
  Lfrc.destroy env !dest;
  Lfrc.store env ~dst:src Heap.null;
  Lfrc.destroy env b (* constructor ref *);
  checki "clean" 0 (Heap.live_count heap)

let test_store_swaps_counts () =
  let env, heap = fresh "store" in
  let dst = Heap.root heap () in
  let a = Lfrc.alloc env node and b = Lfrc.alloc env node in
  Lfrc.store env ~dst a;
  checki "a gained" 2 (rc env a);
  Lfrc.store env ~dst b;
  checki "a lost" 1 (rc env a);
  checki "b gained" 2 (rc env b)

let test_store_null_releases () =
  let env, heap = fresh "store-null" in
  let dst = Heap.root heap () in
  let a = Lfrc.alloc env node in
  Lfrc.store_alloc env ~dst a;
  Lfrc.store env ~dst Heap.null;
  checkb "freed" false (Heap.is_live heap a)

let test_store_alloc_consumes () =
  let env, heap = fresh "store-alloc" in
  let dst = Heap.root heap () in
  let a = Lfrc.alloc env node in
  Lfrc.store_alloc env ~dst a;
  checki "count transferred, not raised" 1 (rc env a);
  ignore heap

let test_copy () =
  let env, _ = fresh "copy" in
  let a = Lfrc.alloc env node in
  let x = ref Heap.null in
  Lfrc.copy env ~dest:x a;
  checki "copy counted" 2 (rc env a);
  let y = ref a in
  (* copying over an existing local destroys its content once *)
  Lfrc.copy env ~dest:y a;
  checki "net unchanged" 2 (rc env a)

let test_cas_success_failure () =
  let env, heap = fresh "cas" in
  let dst = Heap.root heap () in
  let a = Lfrc.alloc env node and b = Lfrc.alloc env node in
  Lfrc.store env ~dst a (* a: constructor ref + cell ref *);
  checkb "cas hit" true (Lfrc.cas env dst ~old_ptr:a ~new_ptr:b);
  checki "b gained" 2 (rc env b);
  checki "a dropped to constructor ref" 1 (rc env a);
  checkb "cas miss" false (Lfrc.cas env dst ~old_ptr:a ~new_ptr:a);
  checki "failed cas compensated" 1 (rc env a);
  ignore heap

let test_dcas_success () =
  let env, heap = fresh "dcas" in
  let c0 = Heap.root heap () and c1 = Heap.root heap () in
  let a = Lfrc.alloc env node and b = Lfrc.alloc env node in
  Lfrc.store_alloc env ~dst:c0 a;
  Lfrc.store_alloc env ~dst:c1 b;
  (* swap the two cells *)
  checkb "swap" true
    (Lfrc.dcas env c0 c1 ~old0:a ~old1:b ~new0:b ~new1:a);
  checki "c0 now b" b (Lfrc.read_ptr env c0);
  checki "a count stable" 1 (rc env a);
  checki "b count stable" 1 (rc env b);
  checki "no violations" 0 (List.length (Report.check_rc_exact heap))

let test_dcas_failure_compensates () =
  let env, heap = fresh "dcas-fail" in
  let c0 = Heap.root heap () and c1 = Heap.root heap () in
  let a = Lfrc.alloc env node and b = Lfrc.alloc env node in
  Lfrc.store_alloc env ~dst:c0 a;
  checkb "fails" false
    (Lfrc.dcas env c0 c1 ~old0:b ~old1:b ~new0:a ~new1:a);
  checki "a unchanged" 1 (rc env a);
  checki "b unchanged" 1 (rc env b);
  ignore heap

let test_dcas_ptr_val () =
  let env, heap = fresh "dcas-pv" in
  let pcell = Heap.root heap () in
  let a = Lfrc.alloc env node in
  let vcell = Heap.val_cell heap a 0 in
  Lfrc.store_alloc env ~dst:pcell a;
  checkb "claims value" true
    (Lfrc.dcas_ptr_val env ~ptr_cell:pcell ~val_cell:vcell ~old_ptr:a
       ~new_ptr:a ~old_val:0 ~new_val:42);
  checki "value written" 42 (Cell.get vcell);
  checki "pointer count net zero" 1 (rc env a);
  checkb "fails on value mismatch" false
    (Lfrc.dcas_ptr_val env ~ptr_cell:pcell ~val_cell:vcell ~old_ptr:a
       ~new_ptr:a ~old_val:0 ~new_val:43);
  checki "still compensated" 1 (rc env a)

let test_add_to_rc () =
  let env, _ = fresh "addrc" in
  let a = Lfrc.alloc env node in
  checki "returns previous" 1 (Lfrc.add_to_rc env a 3);
  checki "applied" 4 (rc env a);
  checki "negative delta" 4 (Lfrc.add_to_rc env a (-3))

let test_with_locals_destroys () =
  let env, heap = fresh "locals" in
  let a = Lfrc.alloc env node in
  Lfrc.with_locals env 2 (fun ls ->
      Lfrc.copy env ~dest:ls.(0) a;
      Lfrc.copy env ~dest:ls.(1) a;
      checki "counted" 3 (rc env a));
  checki "locals destroyed on exit" 1 (rc env a);
  Lfrc.destroy env a;
  checki "clean" 0 (Heap.live_count heap)

let test_with_locals_exception_safe () =
  let env, _ = fresh "locals-exn" in
  let a = Lfrc.alloc env node in
  (try
     Lfrc.with_locals env 1 (fun ls ->
         Lfrc.copy env ~dest:ls.(0) a;
         failwith "bail")
   with Failure _ -> ());
  checki "destroyed despite exception" 1 (rc env a)

(* A run that fails unwinds its suspended threads from the scheduler
   itself, as tid -1: their cleanup still registers and drops their
   references. *)
let test_failed_run_unwinds_locals () =
  let env, heap = fresh "unwind" in
  let p = Lfrc.alloc env node in
  (match
     Sched.run ~max_steps:50 (Lfrc_sched.Strategy.Random 1) (fun () ->
         Lfrc.with_locals env 1 (fun locals ->
             locals.(0) := p;
             while true do
               Sched.point ()
             done))
   with
  | _ -> Alcotest.fail "expected the step limit"
  | exception Sched.Step_limit_exceeded _ -> ());
  checkb "freed by the unwinding" false (Heap.is_live heap p)

(* --- Destroy policies --- *)

let build_chain env n =
  let heap = Env.heap env in
  let head = ref Heap.null in
  for _ = 1 to n do
    let nd = Lfrc.alloc env node in
    if !head <> Heap.null then
      Lfrc.store_alloc env ~dst:(Heap.ptr_cell heap nd 0) !head;
    head := nd
  done;
  !head

let test_policies_equivalent () =
  List.iter
    (fun policy ->
      let env, heap = fresh ~policy "policy" in
      let head = build_chain env 500 in
      Lfrc.destroy env head;
      (match policy with
      | Env.Deferred _ ->
          while Heap.live_count heap > 0 do
            ignore (Lfrc.pump_deferred env ~budget:100)
          done
      | Env.Recursive | Env.Iterative -> ());
      checki "chain fully reclaimed" 0 (Heap.live_count heap))
    [ Env.Recursive; Env.Iterative; Env.Deferred { budget_per_op = 16 } ]

let test_deferred_bounded_slices () =
  let env, heap =
    fresh ~policy:(Env.Deferred { budget_per_op = 10 }) "deferred"
  in
  let head = build_chain env 100 in
  Lfrc.destroy env head;
  (* the initial destroy pumped one budget's worth *)
  checkb "partially reclaimed" true
    (Heap.live_count heap < 100 && Heap.live_count heap > 0);
  checki "pump frees at most budget" 10 (Lfrc.pump_deferred env ~budget:10);
  while Heap.live_count heap > 0 do
    ignore (Lfrc.pump_deferred env ~budget:10)
  done;
  checki "eventually empty" 0 (Env.deferred_pending env)

let test_iterative_handles_deep_chain () =
  let env, heap = fresh ~policy:Env.Iterative "deep" in
  let head = build_chain env 200_000 in
  Lfrc.destroy env head;
  checki "no stack overflow, all freed" 0 (Heap.live_count heap)

(* --- Weak invariant under concurrency --- *)

let test_weak_invariant_sim () =
  (* Threads shuffle pointers between shared cells with loads, stores and
     DCASes; at quiescence counts must be exact and nothing leaked or
     freed early (any early free raises Use_after_free). *)
  for seed = 0 to 9 do
    let leftover = ref [] in
    let body () =
      let heap = Heap.create ~name:"weak" () in
      let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
      let cells = Array.init 4 (fun _ -> Heap.root heap ()) in
      let seed_obj = Lfrc.alloc env node in
      Lfrc.store_alloc env ~dst:cells.(0) seed_obj;
      let tids =
        List.init 3 (fun t ->
            Sched.spawn (fun () ->
                let rng = Lfrc_util.Rng.create (seed + (t * 97)) in
                Lfrc.with_locals env 2 (fun ls ->
                    for _ = 1 to 40 do
                      match Lfrc_util.Rng.int rng 5 with
                      | 0 ->
                          let c = Lfrc_util.Rng.pick rng cells in
                          Lfrc.load env ~src:c ~dest:ls.(0)
                      | 1 ->
                          let c = Lfrc_util.Rng.pick rng cells in
                          Lfrc.store env ~dst:c !(ls.(0))
                      | 2 ->
                          let p = Lfrc.alloc env node in
                          let c = Lfrc_util.Rng.pick rng cells in
                          Lfrc.store_alloc env ~dst:c p
                      | 3 ->
                          let c = Lfrc_util.Rng.pick rng cells in
                          ignore
                            (Lfrc.cas env c ~old_ptr:!(ls.(0))
                               ~new_ptr:!(ls.(1)))
                      | _ ->
                          let c0 = Lfrc_util.Rng.pick rng cells in
                          let c1 = Lfrc_util.Rng.pick rng cells in
                          if Cell.id c0 <> Cell.id c1 then
                            ignore
                              (Lfrc.dcas env c0 c1 ~old0:!(ls.(0))
                                 ~old1:!(ls.(1)) ~new0:!(ls.(1))
                                 ~new1:!(ls.(0)))
                    done)))
      in
      Sched.join tids;
      leftover := [ (heap, env, cells) ]
    in
    ignore (Sched.run (Lfrc_sched.Strategy.Random seed) body);
    match !leftover with
    | [ (heap, env, cells) ] ->
        checki
          (Printf.sprintf "counts exact at quiescence (seed %d)" seed)
          0
          (List.length (Report.check_rc_exact heap));
        Array.iter (fun c -> Lfrc.store env ~dst:c Heap.null) cells;
        checki
          (Printf.sprintf "no leaks after teardown (seed %d)" seed)
          0 (Heap.live_count heap)
    | _ -> Alcotest.fail "missing state"
  done

(* The paper's "always" half of the weak invariant, checked from a
   monitor thread at arbitrary interleaving points while workers churn a
   deque: no live object's count may ever undercut the heap-visible
   pointers to it. *)
let test_rc_lower_bound_always () =
  let module D = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops) in
  for seed = 0 to 9 do
    let body () =
      let heap = Heap.create ~name:"lb" () in
      let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
      let d = D.create env in
      let workers =
        List.init 3 (fun t ->
            Sched.spawn (fun () ->
                let h = D.register d in
                let rng = Lfrc_util.Rng.create (seed + (t * 53)) in
                for i = 1 to 50 do
                  match Lfrc_util.Rng.int rng 4 with
                  | 0 -> D.push_left h i
                  | 1 -> D.push_right h i
                  | 2 -> ignore (D.pop_left h)
                  | _ -> ignore (D.pop_right h)
                done;
                D.unregister h))
      in
      ignore
        (Sched.spawn ~name:"monitor" (fun () ->
             for _ = 1 to 200 do
               Sched.point ();
               match Report.check_rc_lower_bound heap with
               | [] -> ()
               | v :: _ ->
                   failwith
                     (Format.asprintf "invariant broken mid-run: %a"
                        Report.pp_violation v)
             done));
      Sched.join workers
    in
    ignore (Sched.run ~max_steps:10_000_000 (Lfrc_sched.Strategy.Random seed) body)
  done

(* Paper footnote 3: a permanently failed thread orphans whatever its
   counted locals held — bounded garbage that counting alone never
   reclaims, but that remains (a) harmless to everyone else's progress
   and (b) reclaimable by the backup tracer since nothing reachable
   points at it. *)
let test_dead_thread_orphans_garbage () =
  let module D = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops) in
  let leftover = ref None in
  let body () =
    let heap = Heap.create ~name:"dead-thread" () in
    let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
    let d = D.create env in
    let victim =
      Sched.spawn ~name:"victim" (fun () ->
          let h = D.register d in
          (* loop forever: the kill lands somewhere mid-operation *)
          let i = ref 0 in
          while true do
            incr i;
            D.push_right h !i;
            ignore (D.pop_left h)
          done)
    in
    (* let the victim get going, then fail it permanently *)
    for _ = 1 to 200 do
      Sched.point ()
    done;
    Sched.kill victim;
    (* everyone else keeps working: lock-freedom survives the death *)
    let worker =
      Sched.spawn (fun () ->
          let h = D.register d in
          for i = 1 to 100 do
            D.push_left h i;
            ignore (D.pop_right h)
          done;
          D.unregister h)
    in
    Sched.join [ worker ];
    let h = D.register d in
    let rec drain () = if D.pop_left h <> None then drain () in
    drain ();
    D.unregister h;
    D.destroy d;
    leftover := Some heap
  in
  ignore (Sched.run ~max_steps:10_000_000 (Lfrc_sched.Strategy.Random 1234) body);
  let heap = Option.get !leftover in
  let orphans = Heap.live_count heap in
  (* the victim's locals pin at most a handful of nodes *)
  checkb "bounded orphaned garbage" true (orphans <= 12);
  (* nothing reachable points at the orphans, so the backup tracer (or
     any root-based pass) can reclaim them *)
  ignore (Lfrc_cycle.Cycle_collector.collect heap);
  checki "tracer reclaims the orphans" 0 (Heap.live_count heap)

(* --- qcheck properties --- *)

let prop_random_graph_counts_exact =
  QCheck2.Test.make ~name:"random op sequence keeps counts exact"
    ~count:100
    QCheck2.Gen.(pair small_nat (list (int_bound 4)))
    (fun (seed, opcodes) ->
      let heap = Heap.create ~name:"qc" () in
      let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
      let cells = Array.init 3 (fun _ -> Heap.root heap ()) in
      let rng = Lfrc_util.Rng.create seed in
      Lfrc.with_locals env 1 (fun ls ->
          List.iter
            (fun opcode ->
              let c = Lfrc_util.Rng.pick rng cells in
              match opcode with
              | 0 -> Lfrc.load env ~src:c ~dest:ls.(0)
              | 1 -> Lfrc.store env ~dst:c !(ls.(0))
              | 2 ->
                  let p = Lfrc.alloc env node in
                  Lfrc.store_alloc env ~dst:c p
              | 3 -> ignore (Lfrc.cas env c ~old_ptr:!(ls.(0)) ~new_ptr:!(ls.(0)))
              | _ ->
                  (* link: make *c point from one object to another *)
                  let p = Lfrc.read_ptr env c in
                  if p <> Heap.null && !(ls.(0)) <> Heap.null then
                    Lfrc.store env
                      ~dst:(Heap.ptr_cell heap p 0)
                      !(ls.(0)))
            opcodes);
      let violations = Report.check_rc_exact heap in
      Array.iter (fun c -> Lfrc.store env ~dst:c Heap.null) cells;
      (* acyclic here (links only to older? not guaranteed!) — so only
         check count exactness, not emptiness: cycles may survive, which
         is the documented LFRC behaviour tested in test_cycle. *)
      violations = [])

let prop_chain_destroy_total =
  QCheck2.Test.make ~name:"chain destroy frees exactly n" ~count:50
    QCheck2.Gen.(int_range 0 200)
    (fun n ->
      let env, heap = fresh "qc-chain" in
      let head = build_chain env n in
      Lfrc.destroy env head;
      Heap.live_count heap = 0 && (Heap.stats heap).Heap.frees = n)

(* --- Allocation budgets --- *)

(* Minor words per call of [op], over 10,000 calls after one untimed
   call (which may create the calling thread's tables); fails past
   [limit]. *)
let budget name limit op =
  let n = 10_000 in
  op ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    op ()
  done;
  let words = (Gc.minor_words () -. before) /. Float.of_int n in
  if words > limit then
    Alcotest.failf "%s: %.4f words per op (budget %.0f)" name words limit

(* Load, store and cas, outside the simulator, each within its budget of
   minor words per call; the substrate defaults to [Atomic_step]. *)
let op_budgets ?dcas_impl ?rc_mode ?metrics ?profile ?blame (load, store, cas)
    =
  let env, heap =
    fresh ?dcas_impl ?rc_mode ?metrics ?profile ?blame "budget"
  in
  let on = " on " ^ Lfrc_atomics.Dcas.impl_name (Env.dcas env) in
  let cell = Heap.root heap () in
  Lfrc.store_alloc env ~dst:cell (Lfrc.alloc env node);
  let local = ref Heap.null in
  Lfrc.load env ~src:cell ~dest:local;
  budget ("load" ^ on) load (fun () -> Lfrc.load env ~src:cell ~dest:local);
  budget ("store" ^ on) store (fun () -> Lfrc.store env ~dst:cell !local);
  budget ("cas" ^ on) cas (fun () ->
      ignore (Lfrc.cas env cell ~old_ptr:!local ~new_ptr:!local));
  (env, local, on)

(* The four obs-off rows in one count-delivery mode: load, store, cas,
   and copy + destroy of a second local. *)
let mode_budgets ?dcas_impl ?rc_mode words =
  let env, local, on = op_budgets ?dcas_impl ?rc_mode (words, words, words) in
  let tmp = ref Heap.null in
  budget ("copy+destroy" ^ on) words (fun () ->
      Lfrc.copy env ~dest:tmp !local;
      Lfrc.destroy env !tmp;
      tmp := Heap.null);
  (env, local)

(* Every obs-off row runs on the simulator's substrate and on the one
   real domains use, whose stripe locks build no closure. *)
let substrates = Lfrc_atomics.Dcas.[ Atomic_step; Striped_lock ]

(* Outside the simulator, with observability off, an eager Figure-2
   operation allocates nothing: no closure, no box, and no registry
   cell, since the crash registries are int stacks grown once. *)
let test_obs_off_op_budgets () =
  List.iter
    (fun dcas_impl ->
      let env, local = mode_budgets ~dcas_impl 0. in
      checki "counts unchanged" 2 (rc env !local))
    substrates

(* Deferred rc parks into a per-thread table grown once; the budget
   also covers the flush every 64 parks, amortized. *)
let test_deferred_op_budgets () =
  List.iter
    (fun dcas_impl ->
      let env, local =
        mode_budgets ~dcas_impl ~rc_mode:(Env.Deferred_rc { epoch = 64 }) 4.
      in
      Env.settle env;
      checki "counts settle" 2 (rc env !local))
    substrates

(* Wait-free counts move weight between per-thread tables grown once
   and issue single fetch-adds: nothing allocates. *)
let test_wait_free_op_budgets () =
  List.iter
    (fun dcas_impl ->
      ignore
        (mode_budgets ~dcas_impl ~rc_mode:(Env.Wait_free { weight = 64 }) 0.))
    substrates

(* A context's locals are an array stack: declare + retire allocates
   only the local's own ref. *)
let test_locals_budget () =
  let env, _ = fresh "budget-locals" in
  let ctx = Lfrc_core.Lfrc_ops.make_ctx env in
  budget "declare+retire" 2. (fun () ->
      Lfrc_core.Lfrc_ops.retire ctx (Lfrc_core.Lfrc_ops.declare ctx));
  Lfrc_core.Lfrc_ops.dispose_ctx ctx

(* With metrics on, an op's counters are atomic slots and its retry-burst
   sample bumps an atomic histogram bucket: nothing is allocated. *)
let test_metrics_op_budgets () =
  ignore (op_budgets ~metrics:(Lfrc_obs.Metrics.create ()) (0., 0., 0.))

(* With the full bundle on, every op also runs in a span, opened without
   a closure on a stack reused from call to call; the profiler's three
   samples bump histogram buckets, and blame re-stamps the cells it
   writes in place, in tables grown once: nothing is allocated. *)
let test_obs_bundle_op_budgets () =
  let metrics = Lfrc_obs.Metrics.create () in
  ignore
    (op_budgets ~metrics
       ~profile:(Lfrc_obs.Profile.create ~metrics ())
       ~blame:(Lfrc_obs.Blame.create ()) (0., 0., 0.))

(* A span pair through the environment, with metrics, profile and blame
   on, allocates nothing: the profiler's three samples bump histogram
   buckets. *)
let test_span_pair_budget () =
  let metrics = Lfrc_obs.Metrics.create () in
  let env, _ =
    fresh ~metrics
      ~profile:(Lfrc_obs.Profile.create ~metrics ())
      ~blame:(Lfrc_obs.Blame.create ()) "budget-span"
  in
  let key = Lfrc_obs.Metrics.key "budget.span" in
  budget "span begin+end" 0. (fun () ->
      Env.span_begin env key;
      Env.span_end env key)

(* A span closes on the exceptional path too: an allocation that fails
   with [Simulated_oom] inside [Lfrc.alloc]'s span leaves no open span
   and no open blame chain behind. *)
let test_span_closes_on_raise () =
  let heap = Heap.create ~name:"span-raise" () in
  let metrics = Lfrc_obs.Metrics.create () in
  let profile = Lfrc_obs.Profile.create ~metrics ()
  and blame = Lfrc_obs.Blame.create () in
  let env =
    Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ~metrics ~profile
      ~blame heap
  in
  let p = Lfrc.alloc env node in
  Heap.set_alloc_hook heap (Some (fun () -> true));
  (match Lfrc.alloc env node with
  | _ -> Alcotest.fail "the hook should fail the allocation"
  | exception Heap.Simulated_oom -> ());
  Heap.set_alloc_hook heap None;
  checki "no open blame frame" 0 (Lfrc_obs.Blame.pending blame);
  Alcotest.(check string)
    "no open profiler frame" "(unattributed)" (Env.span_site env);
  let calls =
    List.find (fun r -> r.Lfrc_obs.Profile.r_site = "lfrc.alloc")
      (Lfrc_obs.Profile.rows profile)
  in
  checki "both allocs closed their frames" 2 calls.Lfrc_obs.Profile.r_calls;
  Lfrc.destroy env p

(* A thread crashed inside an op never closes its spans, and those spans
   end with its environment: a fresh environment over the same profile,
   lineage and blame registries attributes the same thread's raw work,
   outside any op, to no op at all. Under round-robin the crash at step
   15 lands in the [lfrc.destroy] nested in the second load. *)
let test_crashed_spans_end_with_env () =
  let profile = Lfrc_obs.Profile.create ()
  and lineage = Lfrc_obs.Lineage.create ()
  and blame = Lfrc_obs.Blame.create () in
  let fresh_env name =
    let heap = Heap.create ~name () in
    let env =
      Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ~profile ~lineage
        ~blame heap
    in
    (env, heap, Heap.root heap ~name:"root" ())
  in
  let env, _, root = fresh_env "crash-span-1" in
  let o =
    Sched.run ~max_steps:10_000
      ~inject_crash:(fun ~tid ~step -> tid = 1 && step >= 15)
      Lfrc_sched.Strategy.Round_robin
      (fun () ->
        let t =
          Sched.spawn (fun () ->
              Lfrc.store_alloc env ~dst:root (Lfrc.alloc env node);
              let local = ref Heap.null in
              for _ = 1 to 1_000 do
                Lfrc.load env ~src:root ~dest:local
              done)
        in
        Sched.join [ t ])
  in
  Alcotest.(check (list int)) "thread 1 crashed" [ 1 ] o.Sched.crashed;
  let env, heap, root = fresh_env "crash-span-2" in
  let fresh_obj = ref Heap.null in
  ignore
    (Sched.run ~max_steps:10_000 Lfrc_sched.Strategy.Round_robin (fun () ->
         let t =
           Sched.spawn (fun () ->
               checkb "raw cas fails" false
                 (Lfrc_atomics.Dcas.cas (Env.dcas env) root 1 2);
               fresh_obj := Heap.alloc heap node)
         in
         Sched.join [ t ]));
  let unattributed =
    List.find_opt
      (fun r -> r.Lfrc_obs.Profile.r_site = "(unattributed)")
      (Lfrc_obs.Profile.rows profile)
  in
  checki "the raw failed cas reaches the unattributed row" 1
    (match unattributed with
    | Some r -> r.Lfrc_obs.Profile.r_dcas_retries
    | None -> 0);
  Alcotest.(check string)
    "the raw alloc ran outside any op" "?"
    (match Lfrc_obs.Lineage.last_event lineage ~addr:!fresh_obj with
    | Some e -> e.Lfrc_obs.Lineage.op
    | None -> "(no event)");
  checkb "blame names the unattributed victim" true
    (List.exists
       (fun r -> r.Lfrc_obs.Blame.b_victim = "(unattributed)")
       (Lfrc_obs.Blame.rows blame))

let () =
  Alcotest.run "lfrc"
    [
      ( "operations",
        [
          Alcotest.test_case "alloc rc=1" `Quick test_alloc_rc_one;
          Alcotest.test_case "destroy frees at zero" `Quick test_destroy_frees_at_zero;
          Alcotest.test_case "destroy null noop" `Quick test_destroy_null_noop;
          Alcotest.test_case "destroy recurses" `Quick test_destroy_recursive_children;
          Alcotest.test_case "shared child survives" `Quick test_destroy_shared_child_survives;
          Alcotest.test_case "load increments" `Quick test_load_increments;
          Alcotest.test_case "load null" `Quick test_load_null;
          Alcotest.test_case "load replaces old" `Quick test_load_replaces_old;
          Alcotest.test_case "store swaps counts" `Quick test_store_swaps_counts;
          Alcotest.test_case "store null releases" `Quick test_store_null_releases;
          Alcotest.test_case "store_alloc consumes" `Quick test_store_alloc_consumes;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "cas" `Quick test_cas_success_failure;
          Alcotest.test_case "dcas success" `Quick test_dcas_success;
          Alcotest.test_case "dcas failure compensates" `Quick test_dcas_failure_compensates;
          Alcotest.test_case "dcas ptr/val" `Quick test_dcas_ptr_val;
          Alcotest.test_case "add_to_rc" `Quick test_add_to_rc;
          Alcotest.test_case "with_locals destroys" `Quick test_with_locals_destroys;
          Alcotest.test_case "with_locals exception-safe" `Quick test_with_locals_exception_safe;
          Alcotest.test_case "failed run unwinds locals" `Quick
            test_failed_run_unwinds_locals;
        ] );
      ( "policies",
        [
          Alcotest.test_case "equivalent outcomes" `Quick test_policies_equivalent;
          Alcotest.test_case "deferred bounded slices" `Quick test_deferred_bounded_slices;
          Alcotest.test_case "iterative deep chain" `Slow test_iterative_handles_deep_chain;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "weak invariant in sim" `Slow test_weak_invariant_sim;
          Alcotest.test_case "rc lower bound always holds" `Slow
            test_rc_lower_bound_always;
          Alcotest.test_case "dead thread orphans bounded garbage" `Quick
            test_dead_thread_orphans_garbage;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "obs-off op budgets" `Quick
            test_obs_off_op_budgets;
          Alcotest.test_case "deferred op budgets" `Quick
            test_deferred_op_budgets;
          Alcotest.test_case "wait-free op budgets" `Quick
            test_wait_free_op_budgets;
          Alcotest.test_case "locals declare+retire budget" `Quick
            test_locals_budget;
          Alcotest.test_case "metrics op budgets" `Quick
            test_metrics_op_budgets;
          Alcotest.test_case "obs bundle op budgets" `Quick
            test_obs_bundle_op_budgets;
          Alcotest.test_case "span pair budget" `Quick test_span_pair_budget;
          Alcotest.test_case "span closes on raise" `Quick
            test_span_closes_on_raise;
          Alcotest.test_case "crashed spans end with their env" `Quick
            test_crashed_spans_end_with_env;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_graph_counts_exact;
          QCheck_alcotest.to_alcotest prop_chain_destroy_total;
        ] );
    ]
