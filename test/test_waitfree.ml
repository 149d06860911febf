(* The wait-free weighted-rc fast path: pouch and slot weight-table
   semantics, the retry-free property under contention (with an eager
   control run on the same seed), exhaustion fallback at tiny batch
   weights, zero-detect exactness under racing drops, and the exhaustive
   crash sweeps — every yield point, recovered and strict-audited
   leak-FREE, in the wait-free mode (mirroring test_recovery's eager and
   deferred sweeps). *)

module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Env = Lfrc_core.Env
module Lfrc = Lfrc_core.Lfrc
module Dcas = Lfrc_atomics.Dcas
module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy
module Metrics = Lfrc_obs.Metrics
module Fault_plan = Lfrc_faults.Fault_plan
module Audit = Lfrc_faults.Audit
module Chaos = Lfrc_faults.Chaos
module E11 = Lfrc_harness.E11_chaos

module Stack = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)
module Deque = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let counter s key = Metrics.counter_value s key

(* --- the weight side tables, unit-level --- *)

module W = Lfrc_core.Rc_weighted

let test_pouch_semantics () =
  let env =
    Env.create ~dcas_impl:Dcas.Atomic_step
      ~rc_mode:(Env.Wait_free { weight = 64 })
      (Heap.create ~name:"wf-pouch" ())
  in
  checkb "wf mode on" true
    (match Env.rc_mode env with Env.Wait_free _ -> true | _ -> false);
  let tbl = W.create ~weight:64 in
  checki "batch weight" 64 (W.weight tbl);
  checki "absent entry carries implicit weight 1" 1
    (W.pool_weight tbl ~addr:7);
  checkb "share without an entry fails" false
    (W.pool_try_share tbl ~addr:7);
  W.pool_add tbl ~addr:7 ~w:3 ~n:1;
  checki "pooled weight visible" 3 (W.pool_weight tbl ~addr:7);
  (* (w=3,n=1): two copies can ride the pool, the third cannot. *)
  checkb "spare weight covers a copy" true (W.pool_try_share tbl ~addr:7);
  checkb "and one more" true (W.pool_try_share tbl ~addr:7);
  checkb "exhausted pool refuses (w = n)" false
    (W.pool_try_share tbl ~addr:7);
  (* destroy fast path undoes a covered ref without touching the heap *)
  checkb "drop-shared while n > 1" true
    (W.pool_try_drop_shared tbl ~addr:7);
  (* returning unspent publication weight merges without covering *)
  checkb "give merges into the existing entry" true
    (W.pool_give tbl ~addr:7 ~w:5);
  checkb "the merged weight covers a new copy" true
    (W.pool_try_share tbl ~addr:7);
  checkb "give with no entry fails" false (W.pool_give tbl ~addr:9 ~w:2);
  (* (w=8,n=3): a handoff leaves with weight 1 while refs remain *)
  checki "transfer takes 1 while other refs remain" 1
    (W.pool_take_for_transfer tbl ~addr:7);
  checkb "drop back down to one covered ref" true
    (W.pool_try_drop_shared tbl ~addr:7);
  checkb "the last covered ref cannot drop-share" false
    (W.pool_try_drop_shared tbl ~addr:7);
  (* (w=7,n=1): the last transfer surrenders the whole pool *)
  checki "last transfer surrenders the pool" 7
    (W.pool_take_for_transfer tbl ~addr:7);
  checki "entry gone (back to implicit 1)" 1 (W.pool_weight tbl ~addr:7)

let test_slot_semantics () =
  let heap = Heap.create ~name:"wf-slot" () in
  let tbl = W.create ~weight:64 in
  let cell = Heap.root heap ~name:"slot" () in
  checki "untracked slot carries weight 1" 1 (W.slot_take tbl ~cell);
  W.slot_set tbl ~cell ~w:3;
  (* borrow-on-handoff: take 1 while at least 1 remains *)
  checkb "borrow from w=3" true (W.slot_try_borrow tbl ~cell);
  checkb "borrow from w=2" true (W.slot_try_borrow tbl ~cell);
  checkb "exhausted slot (w=1) refuses a borrow" false
    (W.slot_try_borrow tbl ~cell);
  (* load's exhaustion refill deposits a fresh batch on the slot *)
  W.slot_give tbl ~cell ~w:4;
  checki "take returns the refilled weight" 5 (W.slot_take tbl ~cell);
  checki "take leaves the slot untracked" 1 (W.slot_take tbl ~cell)

(* --- contended behavior: retry-free, borrows, exhaustion --- *)

let contended_stack_run ~rc_mode ~seed ~metrics ~workers ~ops =
  let heap = Heap.create ~name:"wf-stack" () in
  let env = Env.create ~dcas_impl:Dcas.Atomic_step ~rc_mode ~metrics heap in
  ignore
    (Sched.run ~max_steps:10_000_000 (Strategy.Random seed) (fun () ->
         let t = Stack.create env in
         let tids =
           List.init workers (fun w ->
               Sched.spawn (fun () ->
                   let h = Stack.register t in
                   for i = 1 to ops do
                     if (i + w) mod 3 < 2 then Stack.push h ((w * 1000) + i)
                     else ignore (Stack.pop h)
                   done;
                   Stack.unregister h))
         in
         Sched.join tids;
         Stack.destroy t));
  Lfrc_simmem.Report.assert_no_leaks heap;
  Metrics.snapshot metrics

let test_rc_retry_zero_under_contention () =
  let s =
    contended_stack_run
      ~rc_mode:(Env.Wait_free { weight = 64 })
      ~seed:3
      ~metrics:(Metrics.create ())
      ~workers:3 ~ops:150
  in
  (* The headline property: count delivery never retries — copy/destroy
     are single fetch-adds. *)
  checki "lfrc.rc_retry is exactly zero" 0 (counter s "lfrc.rc_retry");
  checkb "count updates went through fetch-add" true (counter s "dcas.rmw" > 0);
  checkb "handoffs borrowed slot weight" true
    (counter s "lfrc.weight_borrow" > 0);
  (* Control: the same workload and seed under eager counts DOES retry,
     so the zero above is the mode, not the workload. *)
  let e =
    contended_stack_run ~rc_mode:Env.Eager ~seed:3
      ~metrics:(Metrics.create ())
      ~workers:3 ~ops:150
  in
  checkb "eager control run retries" true (counter e "lfrc.rc_retry" > 0)

(* The CLI's stats run (treiber, 4 x 500, seed 7): no count update
   retries or flushes, fetch-adds and borrows carry the counts, CAS
   traffic falls below half of eager's, and the heap totals are eager's. *)
let test_stats_run_against_eager () =
  let run rc_mode =
    let metrics = Metrics.create () in
    Lfrc_harness.Common.run_workload ~rc_mode ~metrics ~workers:4
      ~ops_per_worker:500 ~seed:7
      (List.assoc "treiber" Lfrc_harness.Common.workloads);
    Metrics.snapshot metrics
  in
  let e = run Env.Eager
  and w =
    run (Env.Wait_free { weight = Lfrc_harness.Scenario.wait_free_weight })
  in
  checki "no rc retry" 0 (counter w "lfrc.rc_retry");
  checki "no rc flush cas" 0 (counter w "lfrc.rc_flush_cas");
  checkb "fetch-adds" true (counter w "dcas.rmw" > 0);
  checkb "weight borrowed" true (counter w "lfrc.weight_borrow" > 0);
  let ce = counter e "dcas.cas_attempts"
  and cw = counter w "dcas.cas_attempts" in
  checkb
    (Printf.sprintf "cas attempts %d < 0.5 x eager %d" cw ce)
    true (2 * cw < ce);
  checki "heap allocs as eager" (counter e "heap.allocs")
    (counter w "heap.allocs");
  checki "heap frees as eager" (counter e "heap.frees") (counter w "heap.frees")

let test_exhaustion_at_tiny_weights () =
  List.iter
    (fun weight ->
      let s =
        contended_stack_run
          ~rc_mode:(Env.Wait_free { weight })
          ~seed:7
          ~metrics:(Metrics.create ())
          ~workers:3 ~ops:400
      in
      checkb
        (Printf.sprintf "weight=%d: exhaustion fallback taken" weight)
        true
        (counter s "lfrc.weight_exhaust" > 0);
      (* Fallback DCAS retries are load retries, never rc retries. *)
      checki
        (Printf.sprintf "weight=%d: still retry-free on the count" weight)
        0 (counter s "lfrc.rc_retry"))
    [ 2; 3; 4 ]

(* --- zero-detect is exact under racing drops: tiny weights force every
   thread through the count word while a dropper clears the root --- *)

let test_zero_detect_racing_drops () =
  for seed = 1 to 8 do
    let metrics = Metrics.create () in
    let heap = Heap.create ~name:"wf-zero" () in
    let env =
      Env.create ~dcas_impl:Dcas.Atomic_step
        ~rc_mode:(Env.Wait_free { weight = 2 })
        ~metrics heap
    in
    let layout = Layout.make ~name:"wf-zero-node" ~n_ptrs:1 ~n_vals:1 in
    ignore
      (Sched.run ~max_steps:2_000_000 (Strategy.Random seed) (fun () ->
           let root = Heap.root heap ~name:"shared" () in
           let p = Lfrc.alloc env layout in
           Lfrc.store_alloc env ~dst:root p;
           let readers =
             List.init 4 (fun _ ->
                 Sched.spawn (fun () ->
                     let dest = ref Heap.null in
                     for _ = 1 to 20 do
                       Lfrc.load env ~src:root ~dest;
                       let d2 = ref Heap.null in
                       Lfrc.copy env ~dest:d2 !dest;
                       Lfrc.destroy env !d2
                     done;
                     Lfrc.destroy env !dest))
           in
           let dropper =
             Sched.spawn (fun () -> Lfrc.store env ~dst:root Heap.null)
           in
           Sched.join (dropper :: readers)));
    (* One allocation, racing splits/borrows/drops — freed exactly once,
       exactly when the last weight left. A double free raises inside the
       run; a missed zero-detect leaks here. *)
    Lfrc_simmem.Report.assert_no_leaks heap;
    let s = Metrics.snapshot metrics in
    checki
      (Printf.sprintf "seed %d: every alloc freed exactly once" seed)
      (counter s "heap.allocs") (counter s "heap.frees")
  done

(* --- exhaustive crash sweeps, wait-free: crash at EVERY yield point,
   recover, strict audit, zero leaks (test_recovery's bodies) --- *)

let assert_zero_leak ~label r =
  match r.Chaos.audit with
  | Some a when not r.Chaos.audit_advisory ->
      if not (Audit.ok a) || a.Audit.leaked <> 0 then
        Alcotest.failf "%s: strict audit not leak-free:@ %s (repro: %s)" label
          (Format.asprintf "%a" Audit.pp a)
          r.Chaos.repro
  | _ ->
      Alcotest.failf "%s: no authoritative audit (repro: %s)" label
        r.Chaos.repro

let snark_cycle_body env =
  let t = Deque.create env in
  let worker =
    Sched.spawn (fun () ->
        let h = Deque.register t in
        (match Deque.try_push_right h 42 with
        | Ok () -> ignore (Deque.pop_left h)
        | Error `Out_of_memory -> ());
        Deque.unregister h)
  in
  Sched.join [ worker ]

let treiber_cycle_body env =
  let t = Stack.create env in
  let worker =
    Sched.spawn (fun () ->
        let h = Stack.register t in
        for i = 1 to 3 do
          Stack.push h i;
          ignore (Stack.pop h)
        done;
        Stack.unregister h)
  in
  Sched.join [ worker ]

let sweep_with_recovery ~weight ~min_covered body =
  let strategy = Strategy.Round_robin in
  let rec sweep n covered =
    let spec = { Fault_plan.default with crashes = [ (1, n) ] } in
    let r =
      Chaos.run
        ~rc_mode:(Env.Wait_free { weight })
        ~recover:true ~max_steps:100_000 ~strategy ~spec body
    in
    match r.Chaos.status with
    | Chaos.Completed { crashed = []; _ } -> covered
    | Chaos.Completed { crashed = [ 1 ]; _ } ->
        let label = Printf.sprintf "weight=%d crash at resume %d" weight n in
        (match r.Chaos.recovery with
        | Some _ -> ()
        | None -> Alcotest.failf "%s: no recovery report" label);
        assert_zero_leak ~label r;
        sweep (n + 1) (covered + 1)
    | _ ->
        Alcotest.failf "crash at resume %d: unexpected outcome (repro: %s)" n
          r.Chaos.repro
  in
  let covered = sweep 0 0 in
  checkb
    (Printf.sprintf "swept %d yield points (want >= %d)" covered min_covered)
    true
    (covered >= min_covered)

let test_snark_sweep_leak_free () =
  sweep_with_recovery ~weight:64 ~min_covered:20 snark_cycle_body

(* Tiny batch weight: the sweep also crosses in-flight exhaustion refills
   and weight handoffs, and recovery must adopt those too. *)
let test_treiber_tiny_weight_sweep_leak_free () =
  sweep_with_recovery ~weight:2 ~min_covered:20 treiber_cycle_body

(* --- the E11 acceptance matrix in wait-free mode: every structure,
   crash and multi-crash, strictly leak-free after recovery --- *)

let test_matrix_leak_free_wait_free () =
  let faults =
    List.filter
      (fun f -> List.mem (E11.fault_name f) [ "crash"; "multi-crash" ])
      E11.fault_kinds
  in
  List.iter
    (fun structure ->
      List.iter
        (fun fault ->
          List.iter
            (fun seed ->
              let r =
                E11.run_one
                  ~rc_mode:(Env.Wait_free { weight = 64 })
                  ~recover:true ~structure ~fault ~seed ()
              in
              let label =
                Printf.sprintf "%s/%s wait-free seed=%d"
                  (E11.structure_name structure)
                  (E11.fault_name fault) seed
              in
              match r.Chaos.status with
              | Chaos.Completed _ -> assert_zero_leak ~label r
              | _ ->
                  Alcotest.failf "%s: did not complete (repro: %s)" label
                    r.Chaos.repro)
            [ 1; 2 ])
        faults)
    E11.structures

let () =
  Alcotest.run "waitfree"
    [
      ( "weight-tables",
        [
          Alcotest.test_case "pouch semantics" `Quick test_pouch_semantics;
          Alcotest.test_case "slot semantics" `Quick test_slot_semantics;
        ] );
      ( "contention",
        [
          Alcotest.test_case "rc_retry exactly zero" `Quick
            test_rc_retry_zero_under_contention;
          Alcotest.test_case "stats run against eager" `Quick
            test_stats_run_against_eager;
          Alcotest.test_case "exhaustion at tiny weights" `Quick
            test_exhaustion_at_tiny_weights;
          Alcotest.test_case "zero-detect under racing drops" `Quick
            test_zero_detect_racing_drops;
        ] );
      ( "crash-sweeps",
        [
          Alcotest.test_case "snark sweep leak-free" `Quick
            test_snark_sweep_leak_free;
          Alcotest.test_case "treiber weight=2 sweep leak-free" `Quick
            test_treiber_tiny_weight_sweep_leak_free;
          Alcotest.test_case "E11 matrix wait-free leak-free" `Quick
            test_matrix_leak_free_wait_free;
        ] );
    ]
