(* Tests for the data structures: sequential specification conformance
   (direct and qcheck), teardown/leak behaviour in both memory modes,
   concurrent linearizability under randomized scheduling, and the
   published-Snark bug regression (EXPERIMENTS.md A4). *)

module Heap = Lfrc_simmem.Heap
module Env = Lfrc_core.Env
module Report = Lfrc_simmem.Report
module Spec = Lfrc_structures.Spec
module Scenario = Lfrc_harness.Scenario
module Strategy = Lfrc_sched.Strategy

module Snark_lfrc = Lfrc_structures.Snark.Make (Lfrc_core.Lfrc_ops)
module Snark_gc = Lfrc_structures.Snark.Make (Lfrc_core.Gc_ops)
module Fixed_lfrc = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)
module Fixed_gc = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Gc_ops)
module Treiber_lfrc = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)
module Treiber_gc = Lfrc_structures.Treiber.Make (Lfrc_core.Gc_ops)
module Ms_lfrc = Lfrc_structures.Msqueue.Make (Lfrc_core.Lfrc_ops)
module Ms_gc = Lfrc_structures.Msqueue.Make (Lfrc_core.Gc_ops)
module Locked = Lfrc_structures.Locked_deque

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_opt = Alcotest.(check (option int))

let fresh name =
  let heap = Heap.create ~name () in
  (Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap, heap)

(* --- Deque: basics shared by every implementation --- *)

let deque_impls : (string * (module Lfrc_structures.Container_intf.DEQUE) * bool) list =
  [
    ("snark-lfrc", (module Snark_lfrc), true);
    ("snark-gc", (module Snark_gc), false);
    ("fixed-lfrc", (module Fixed_lfrc), true);
    ("fixed-gc", (module Fixed_gc), false);
    ("locked", (module Locked), true);
  ]

let test_deque_fifo_lifo () =
  List.iter
    (fun (name, (module D : Lfrc_structures.Container_intf.DEQUE), _) ->
      let env, _ = fresh name in
      let d = D.create env in
      let h = D.register d in
      (* queue usage: push right, pop left *)
      List.iter (D.push_right h) [ 1; 2; 3 ];
      check_opt (name ^ " fifo 1") (Some 1) (D.pop_left h);
      check_opt (name ^ " fifo 2") (Some 2) (D.pop_left h);
      (* stack usage: push right, pop right *)
      D.push_right h 4;
      check_opt (name ^ " lifo 4") (Some 4) (D.pop_right h);
      check_opt (name ^ " lifo 3") (Some 3) (D.pop_right h);
      check_opt (name ^ " empty l") None (D.pop_left h);
      check_opt (name ^ " empty r") None (D.pop_right h);
      D.unregister h;
      D.destroy d)
    deque_impls

let test_deque_mixed_ends () =
  List.iter
    (fun (name, (module D : Lfrc_structures.Container_intf.DEQUE), _) ->
      let env, _ = fresh name in
      let d = D.create env in
      let h = D.register d in
      D.push_left h 2;
      D.push_left h 1;
      D.push_right h 3;
      check_opt (name ^ " left") (Some 1) (D.pop_left h);
      check_opt (name ^ " right") (Some 3) (D.pop_right h);
      check_opt (name ^ " middle") (Some 2) (D.pop_left h);
      D.unregister h;
      D.destroy d)
    deque_impls

let test_deque_empty_after_create () =
  List.iter
    (fun (name, (module D : Lfrc_structures.Container_intf.DEQUE), _) ->
      let env, _ = fresh name in
      let d = D.create env in
      let h = D.register d in
      check_opt (name ^ " empty") None (D.pop_left h);
      check_opt (name ^ " empty") None (D.pop_right h);
      (* empty again after emptying *)
      D.push_left h 9;
      check_opt (name ^ " got it") (Some 9) (D.pop_right h);
      check_opt (name ^ " re-empty") None (D.pop_left h);
      D.unregister h;
      D.destroy d)
    deque_impls

let random_ops_vs_spec (module D : Lfrc_structures.Container_intf.DEQUE) name n
    seed =
  let env, heap = fresh name in
  let d = D.create env in
  let h = D.register d in
  let rng = Lfrc_util.Rng.create seed in
  let model = ref Spec.Deque.empty in
  let ok = ref true in
  for i = 0 to n - 1 do
    match Lfrc_util.Rng.int rng 4 with
    | 0 ->
        D.push_left h i;
        model := Spec.Deque.push_left i !model
    | 1 ->
        D.push_right h i;
        model := Spec.Deque.push_right i !model
    | 2 ->
        let got = D.pop_left h in
        let want =
          match Spec.Deque.pop_left !model with
          | None -> None
          | Some (v, m) ->
              model := m;
              Some v
        in
        if got <> want then ok := false
    | _ ->
        let got = D.pop_right h in
        let want =
          match Spec.Deque.pop_right !model with
          | None -> None
          | Some (v, m) ->
              model := m;
              Some v
        in
        if got <> want then ok := false
  done;
  D.unregister h;
  D.destroy d;
  (!ok, heap)

let test_deque_random_vs_spec () =
  List.iter
    (fun (name, impl, leak_check) ->
      let ok, heap = random_ops_vs_spec impl name 3_000 77 in
      checkb (name ^ " matches spec") true ok;
      if leak_check then begin
        Report.assert_no_leaks heap;
        checki (name ^ " counts exact") 0
          (List.length (Report.check_rc_exact heap))
      end)
    deque_impls

let test_snark_gc_reclaimed_by_tracer () =
  let env, heap = fresh "snark-gc-trace" in
  let d = Snark_gc.create env in
  let h = Snark_gc.register d in
  for i = 1 to 100 do
    Snark_gc.push_right h i
  done;
  for _ = 1 to 100 do
    ignore (Snark_gc.pop_left h)
  done;
  Snark_gc.unregister h;
  Snark_gc.destroy d;
  checkb "garbage pending" true (Heap.live_count heap > 0);
  ignore (Lfrc_simmem.Gc_trace.collect heap);
  checki "tracer reclaims all" 0 (Heap.live_count heap)

let test_deque_destroy_nonempty () =
  (* The paper's destructor drains remaining nodes (Figure 1 line 41). *)
  List.iter
    (fun (name, (module D : Lfrc_structures.Container_intf.DEQUE), leak_check) ->
      let env, heap = fresh name in
      let d = D.create env in
      let h = D.register d in
      for i = 1 to 50 do
        D.push_left h i;
        D.push_right h (-i)
      done;
      D.unregister h;
      D.destroy d;
      if leak_check then
        checki (name ^ " destroy frees contents") 0 (Heap.live_count heap))
    deque_impls

(* --- qcheck: deque conformance over arbitrary op sequences --- *)

let apply_spec_op model (op : Scenario.op) =
  match op with
  | Scenario.Push_left v -> (Spec.Deque.push_left v model, None)
  | Scenario.Push_right v -> (Spec.Deque.push_right v model, None)
  | Scenario.Pop_left -> (
      match Spec.Deque.pop_left model with
      | None -> (model, Some None)
      | Some (v, m) -> (m, Some (Some v)))
  | Scenario.Pop_right -> (
      match Spec.Deque.pop_right model with
      | None -> (model, Some None)
      | Some (v, m) -> (m, Some (Some v)))

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Scenario.Push_left v) (int_bound 1000);
        map (fun v -> Scenario.Push_right v) (int_bound 1000);
        return Scenario.Pop_left;
        return Scenario.Pop_right;
      ])

let prop_deque_conforms (name, (module D : Lfrc_structures.Container_intf.DEQUE), leak_check) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s conforms to the sequential deque" name)
    ~count:60
    QCheck2.Gen.(list_size (int_range 0 120) op_gen)
    (fun ops ->
      let env, heap = fresh name in
      let d = D.create env in
      let h = D.register d in
      let model = ref Spec.Deque.empty in
      let ok = ref true in
      List.iter
        (fun op ->
          let model', expected = apply_spec_op !model op in
          model := model';
          let got =
            match op with
            | Scenario.Push_left v ->
                D.push_left h v;
                None
            | Scenario.Push_right v ->
                D.push_right h v;
                None
            | Scenario.Pop_left -> Some (D.pop_left h)
            | Scenario.Pop_right -> Some (D.pop_right h)
          in
          if got <> expected then ok := false)
        ops;
      D.unregister h;
      D.destroy d;
      !ok && ((not leak_check) || Heap.live_count heap = 0))

(* --- Stack and queue conformance --- *)

let test_stack_vs_spec () =
  let run (module S : Lfrc_structures.Container_intf.STACK) name leak_check =
    let env, heap = fresh name in
    let s = S.create env in
    let h = S.register s in
    let rng = Lfrc_util.Rng.create 13 in
    let model = ref Spec.Stack.empty in
    for i = 0 to 2_000 do
      if Lfrc_util.Rng.bool rng then begin
        S.push h i;
        model := Spec.Stack.push i !model
      end
      else begin
        let got = S.pop h in
        let want =
          match Spec.Stack.pop !model with
          | None -> None
          | Some (v, m) ->
              model := m;
              Some v
        in
        checkb (name ^ " pop matches") true (got = want)
      end
    done;
    S.unregister h;
    S.destroy s;
    if leak_check then checki (name ^ " clean") 0 (Heap.live_count heap)
  in
  run (module Treiber_lfrc) "treiber-lfrc" true;
  run (module Treiber_gc) "treiber-gc" false

let test_queue_vs_spec () =
  let run (module Q : Lfrc_structures.Container_intf.QUEUE) name leak_check =
    let env, heap = fresh name in
    let q = Q.create env in
    let h = Q.register q in
    let rng = Lfrc_util.Rng.create 14 in
    let model = ref Spec.Queue.empty in
    for i = 0 to 2_000 do
      if Lfrc_util.Rng.bool rng then begin
        Q.enqueue h i;
        model := Spec.Queue.enqueue i !model
      end
      else begin
        let got = Q.dequeue h in
        let want =
          match Spec.Queue.dequeue !model with
          | None -> None
          | Some (v, m) ->
              model := m;
              Some v
        in
        checkb (name ^ " dequeue matches") true (got = want)
      end
    done;
    Q.unregister h;
    Q.destroy q;
    if leak_check then checki (name ^ " clean") 0 (Heap.live_count heap)
  in
  run (module Ms_lfrc) "msqueue-lfrc" true;
  run (module Ms_gc) "msqueue-gc" false

(* --- Concurrent linearizability (randomized schedules) --- *)

let lin_scenarios : (string * int list * Scenario.op list list) list =
  Scenario.
    [
      ("2 pops vs push", [ 1; 2 ],
       [ [ Pop_right ]; [ Pop_left ]; [ Push_right 3 ] ]);
      ("crossing pushes", [],
       [ [ Push_right 1; Pop_left ]; [ Push_left 2; Pop_right ] ]);
      ("double pop right", [ 1 ],
       [ [ Pop_right ]; [ Pop_right ]; [ Push_right 2 ] ]);
    ]

let run_lin name dq ~seeds =
  List.iter
    (fun (sc_name, preload, threads) ->
      for seed = 0 to seeds - 1 do
        let o = Scenario.run dq ~preload ~threads (Strategy.Random seed) in
        if not o.Scenario.ok then
          Alcotest.fail
            (Printf.sprintf "%s/%s seed %d not linearizable" name sc_name seed)
      done)
    lin_scenarios

let test_fixed_snark_linearizable () =
  run_lin "fixed-lfrc" (module Fixed_lfrc) ~seeds:300

let test_fixed_snark_gc_linearizable () =
  (* The same algorithm in the GC-dependent world: the tracer reclaims at
     the end (gc_final) and the histories must linearize identically. *)
  List.iter
    (fun (sc_name, preload, threads) ->
      for seed = 0 to 99 do
        let o =
          Scenario.run (module Fixed_gc) ~gc_final:true ~preload ~threads
            (Strategy.Random seed)
        in
        if not o.Scenario.ok then
          Alcotest.fail
            (Printf.sprintf "fixed-gc/%s seed %d not linearizable" sc_name
               seed)
      done)
    lin_scenarios

let test_deque_with_deferred_policy () =
  (* The §7 incremental-destroy policy under a whole structure: pops and
     the destructor enqueue dead nodes; pumping drains them all. *)
  let heap = Heap.create ~name:"deferred-deque" () in
  let env =
    Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step
      ~policy:(Lfrc_core.Env.Deferred { budget_per_op = 4 })
      heap
  in
  let d = Fixed_lfrc.create env in
  let h = Fixed_lfrc.register d in
  for i = 1 to 300 do
    Fixed_lfrc.push_right h i
  done;
  for _ = 1 to 300 do
    ignore (Fixed_lfrc.pop_left h)
  done;
  Fixed_lfrc.unregister h;
  Fixed_lfrc.destroy d;
  while
    Lfrc_core.Lfrc.pump_deferred env ~budget:50 > 0
    || Lfrc_core.Env.deferred_pending env > 0
  do
    ()
  done;
  checki "deferred drain leaves nothing" 0 (Heap.live_count heap)

let test_locked_deque_linearizable () =
  run_lin "locked" (module Locked) ~seeds:150

(* --- The published algorithm's race: regression for A4 --- *)

let test_published_snark_bug_reproduces () =
  (* Deterministic counterexample found by bin/hunt_snark.exe: preload
     [1], concurrent popRight / popLeft / pushLeft 3, random seed 120053.
     popLeft returns empty although the deque provably never is — the
     Doherty et al. (SPAA 2004) false-empty race, rediscovered here.
     If this test ever "fails", the published algorithm would have
     executed correctly on this schedule — which would mean the
     simulation lost determinism. *)
  let o =
    Scenario.run
      (module Snark_lfrc)
      ~preload:[ 1 ]
      ~threads:Scenario.[ [ Pop_right ]; [ Pop_left ]; [ Push_left 3 ] ]
      (Strategy.Pct { seed = 120053; change_points = 3 })
  in
  checkb "published Snark violates linearizability on the known schedule"
    false o.Scenario.ok

let test_published_snark_bug_rate () =
  (* The race is rare but not vanishing: it must appear within a few
     thousand seeds, and the fixed variant must survive the same ones. *)
  let violations dq =
    let bad = ref 0 in
    for seed = 120_000 to 121_000 do
      let strategy =
        if seed land 1 = 0 then Strategy.Random seed
        else Strategy.Pct { seed; change_points = 3 }
      in
      let o =
        Scenario.run dq ~preload:[ 1 ]
          ~threads:Scenario.[ [ Pop_right ]; [ Pop_left ]; [ Push_left 3 ] ]
          strategy
      in
      if not o.Scenario.ok then incr bad
    done;
    !bad
  in
  checkb "published shows violations" true (violations (module Snark_lfrc) > 0);
  checki "fixed shows none" 0 (violations (module Fixed_lfrc))

let () =
  Alcotest.run "structures"
    [
      ( "deque-basics",
        [
          Alcotest.test_case "fifo+lifo" `Quick test_deque_fifo_lifo;
          Alcotest.test_case "mixed ends" `Quick test_deque_mixed_ends;
          Alcotest.test_case "empty states" `Quick test_deque_empty_after_create;
          Alcotest.test_case "random vs spec" `Quick test_deque_random_vs_spec;
          Alcotest.test_case "gc-mode tracer reclaims" `Quick test_snark_gc_reclaimed_by_tracer;
          Alcotest.test_case "destroy non-empty" `Quick test_deque_destroy_nonempty;
        ] );
      ( "deque-properties",
        List.map
          (fun impl -> QCheck_alcotest.to_alcotest (prop_deque_conforms impl))
          deque_impls );
      ( "stack-queue",
        [
          Alcotest.test_case "treiber vs spec" `Quick test_stack_vs_spec;
          Alcotest.test_case "msqueue vs spec" `Quick test_queue_vs_spec;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "fixed snark" `Slow test_fixed_snark_linearizable;
          Alcotest.test_case "fixed snark (gc mode)" `Slow test_fixed_snark_gc_linearizable;
          Alcotest.test_case "locked deque" `Slow test_locked_deque_linearizable;
          Alcotest.test_case "deferred destroy policy" `Quick test_deque_with_deferred_policy;
        ] );
      ( "published-bug",
        [
          Alcotest.test_case "A4 counterexample reproduces" `Quick
            test_published_snark_bug_reproduces;
          Alcotest.test_case "A4 rate: published fails, fixed holds" `Slow
            test_published_snark_bug_rate;
        ] );
    ]
