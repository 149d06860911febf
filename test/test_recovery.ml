(* Crash recovery and orphan adoption: the exhaustive sweeps assert that
   a run with [~recover:true] is leak-FREE — a strict audit with zero
   leaked objects after a crash at EVERY yield point — in the eager and
   deferred-rc count modes; plus targeted regressions for the crashed
   flusher, the crashed epoch pin, multi-crash plans, and MCAS
   descriptor adoption. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Env = Lfrc_core.Env
module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy
module Fault_plan = Lfrc_faults.Fault_plan
module Audit = Lfrc_faults.Audit
module Chaos = Lfrc_faults.Chaos
module Recovery = Lfrc_faults.Recovery
module Metrics = Lfrc_obs.Metrics
module E11 = Lfrc_harness.E11_chaos
module Epoch = Lfrc_reclaim.Epoch
module Ebr_stack = Lfrc_reclaim.Ebr_stack
module Mcas = Lfrc_atomics.Mcas

module Stack = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)
module Deque = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let assert_zero_leak ~label r =
  match r.Chaos.audit with
  | Some a when not r.Chaos.audit_advisory ->
      if not (Audit.ok a) || a.Audit.leaked <> 0 then
        Alcotest.failf "%s: strict audit not leak-free:@ %s (repro: %s)"
          label
          (Format.asprintf "%a" Audit.pp a)
          r.Chaos.repro
  | _ ->
      Alcotest.failf "%s: no authoritative audit (repro: %s)" label
        r.Chaos.repro

(* --- exhaustive crash sweeps: kill the victim at its n-th resume for
   n = 0, 1, 2, ... until the cycle outruns the crash, recovering and
   strict-auditing after every kill --- *)

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

let sweep_with_recovery ?rc_mode ~min_covered body =
  let strategy = Strategy.Round_robin in
  let rec sweep n covered =
    let spec = { Fault_plan.default with crashes = [ (1, n) ] } in
    let r =
      Chaos.run ?rc_mode ~recover:true ~max_steps:100_000 ~strategy ~spec
        body
    in
    match r.Chaos.status with
    | Chaos.Completed { crashed = []; _ } ->
        (* The victim finished before resume [n]: sweep is complete. *)
        covered
    | Chaos.Completed { crashed = [ 1 ]; _ } ->
        let label = Printf.sprintf "crash at resume %d" n in
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
  sweep_with_recovery ~min_covered:20 snark_cycle_body

let test_treiber_deferred_sweep_leak_free () =
  sweep_with_recovery ~rc_mode:(Env.Deferred_rc { epoch = 4 }) ~min_covered:20
    treiber_cycle_body

(* --- the E11 acceptance matrix: structures x (crash | multi-crash) x
   rc modes (eager / epoch-64 / epoch-4), every recovered run strictly
   leak-free --- *)

let test_matrix_leak_free_all_modes () =
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
            (fun (mode, rc_mode) ->
              List.iter
                (fun seed ->
                  let r =
                    E11.run_one ~rc_mode ~recover:true ~structure ~fault
                      ~seed ()
                  in
                  let label =
                    Printf.sprintf "%s/%s %s seed=%d"
                      (E11.structure_name structure)
                      (E11.fault_name fault) mode seed
                  in
                  match r.Chaos.status with
                  | Chaos.Completed _ -> assert_zero_leak ~label r
                  | _ ->
                      Alcotest.failf "%s: did not complete (repro: %s)" label
                        r.Chaos.repro)
                [ 1; 2 ])
            [
              ("eager", Env.Eager);
              ("deferred-4", Env.Deferred_rc { epoch = 4 });
              ("deferred-64", Env.Deferred_rc { epoch = 64 });
            ])
        faults)
    E11.structures

(* --- the adoption pass does adopt: over every structure, crash and
   multi-crash, seeds 1-3 and all three rc modes, recovered runs adopt
   counted references, epoch guards and in-flight weight --- *)

let test_recovery_adopts_in_every_mode () =
  let metrics = Metrics.create () in
  List.iter
    (fun structure ->
      List.iter
        (fun fault ->
          if List.mem (E11.fault_name fault) [ "crash"; "multi-crash" ] then
            List.iter
              (fun rc_mode ->
                List.iter
                  (fun seed ->
                    ignore
                      (E11.run_one ~rc_mode ~recover:true ~metrics ~structure
                         ~fault ~seed ()))
                  [ 1; 2; 3 ])
              [
                Env.Eager;
                Env.Deferred_rc
                  { epoch = Lfrc_harness.Scenario.deferred_rc_epoch };
                Env.Wait_free
                  { weight = Lfrc_harness.Scenario.wait_free_weight };
              ])
        E11.fault_kinds)
    E11.structures;
  List.iter
    (fun key ->
      checkb (key ^ " > 0") true (Metrics.count metrics (Metrics.key key) > 0))
    [ "lfrc.adopt_rc"; "lfrc.adopt_guard"; "lfrc.adopt_weight" ]

(* --- multi-crash plans: expressible, replayable, recoverable --- *)

let test_multi_crash_spec_roundtrip () =
  let spec =
    { Fault_plan.default with seed = 3; crashes = [ (1, 5); (2, 31) ] }
  in
  (match Fault_plan.spec_of_string (Fault_plan.spec_to_string spec) with
  | Some spec' -> checkb "multi-crash spec round-trips" true (spec' = spec)
  | None -> Alcotest.fail "multi-crash spec did not parse back");
  match
    Fault_plan.spec_of_string (Fault_plan.spec_to_string Fault_plan.default)
  with
  | Some spec' ->
      checkb "crash-free spec round-trips" true (spec' = Fault_plan.default)
  | None -> Alcotest.fail "default spec did not parse back"

let two_victims_body env =
  let t = Deque.create env in
  let spawn () =
    Sched.spawn (fun () ->
        let h = Deque.register t in
        for i = 1 to 6 do
          match Deque.try_push_right h i with
          | Ok () -> ignore (Deque.pop_left h)
          | Error `Out_of_memory -> ()
        done;
        Deque.unregister h)
  in
  let a = spawn () in
  let b = spawn () in
  Sched.join [ a; b ]

let test_multi_crash_recovers () =
  let spec = { Fault_plan.default with crashes = [ (1, 9); (2, 17) ] } in
  let r =
    Chaos.run ~recover:true ~max_steps:200_000 ~strategy:Strategy.Round_robin
      ~spec two_victims_body
  in
  (match r.Chaos.status with
  | Chaos.Completed { crashed; _ } ->
      checkb "both victims crashed" true
        (List.sort compare crashed = [ 1; 2 ])
  | _ -> Alcotest.failf "unexpected outcome (repro: %s)" r.Chaos.repro);
  assert_zero_leak ~label:"multi-crash" r;
  match r.Chaos.recovery with
  | Some rep ->
      checki "recovery saw both owners" 2 (List.length rep.Recovery.crashed)
  | None -> Alcotest.fail "no recovery report"

(* --- the crash registries hand entries back in a fixed order ---

   Each thread's destroy and publication entries are a stack: an end
   removes the newest matching entry, and adoption returns entries newest
   first, the last-listed thread first — the order recovery's
   compensating destroys run in, so it is part of every crashed
   schedule. *)

let test_registry_order () =
  let heap = Heap.create ~name:"registry-order" () in
  let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
  let t1 = ref (-1) and t2 = ref (-1) in
  ignore
    (Sched.run Strategy.Round_robin (fun () ->
         t1 :=
           Sched.spawn (fun () ->
               List.iter (Env.begin_destroy env) [ 5; 7; 5; 9 ];
               Env.end_destroy env 5;
               Env.begin_publish env ~weight:1 10;
               Env.begin_publish env ~weight:64 11;
               Env.begin_publish env ~weight:1 10;
               Env.end_publish env 10);
         t2 :=
           Sched.spawn (fun () ->
               Env.begin_destroy env 3;
               Env.begin_destroy env 4;
               Env.begin_publish env ~weight:2 12);
         Sched.join [ !t1; !t2 ]));
  let ints = Alcotest.(list int) in
  Alcotest.check ints "destroys in flight" [ 4; 3; 9; 7; 5 ]
    (Env.destroying_now env);
  Alcotest.check ints "publications in flight" [ 12; 11; 10 ]
    (Env.publishing_now env);
  (* Ids without a slot are skipped. *)
  Alcotest.check ints "adopted destroys" [ 4; 3; 9; 7; 5 ]
    (Env.adopt_destroying env ~tids:[ !t1; 99; !t2; -7 ]);
  Alcotest.check
    Alcotest.(list (pair int int))
    "adopted publications"
    [ (12, 2); (11, 64); (10, 1) ]
    (Env.adopt_publications env ~tids:[ !t1; !t2 ]);
  Alcotest.check ints "adoption clears" []
    (Env.adopt_destroying env ~tids:[ !t1; !t2 ]
    @ List.map fst (Env.adopt_publications env ~tids:[ !t1; !t2 ]))

(* A context's registered locals surrender newest first, whichever order
   they were retired in: recovery adopts them in that order. *)
let test_locals_order () =
  let module O = Lfrc_core.Lfrc_ops in
  let env =
    Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step
      (Heap.create ~name:"locals-order" ())
  in
  let ctx = O.make_ctx env in
  let ls = List.init 12 (fun _ -> O.declare ctx) in
  let node = Lfrc_simmem.Layout.make ~name:"local" ~n_ptrs:1 ~n_vals:0 in
  List.iter (O.alloc ctx node) ls;
  let ptrs = List.map O.get ls in
  let retired i = i mod 3 = 1 in
  List.iteri (fun i l -> if retired i then O.retire ctx l) ls;
  (* Enough further locals to make the stack drop its holes and grow. *)
  let extra = List.init 20 (fun _ -> O.declare ctx) in
  List.iter (O.retire ctx) (List.rev extra);
  let kept = List.filteri (fun i _ -> not (retired i)) ptrs in
  (match Env.adopt_locals env ~tids:[ 0 ] with
  | [ (0, refs) ] ->
      Alcotest.(check (list int)) "newest first" (List.rev kept) refs
  | _ -> Alcotest.fail "one frame expected");
  List.iteri
    (fun i l -> if not (retired i) then checki "surrendered" 0 (O.get l))
    ls;
  List.iter (Lfrc_core.Lfrc.destroy env) kept

(* --- a crashed flusher's staged deltas are re-parked, not lost --- *)

let test_crashed_flusher_restaged () =
  let module D = Lfrc_core.Rc_deferred in
  let rc = D.create ~epoch:64 in
  ignore (D.park rc ~addr:7 ~delta:1);
  ignore (D.park rc ~addr:9 ~delta:(-1));
  checkb "flush flag taken" true (D.try_begin_flush rc);
  checkb "deltas staged" true (D.drain_into_applying rc);
  checkb "buffers empty while staged" true (D.parked rc = []);
  (* a LIVE flusher's staging is left alone *)
  checki "live flusher keeps its staging" 0 (D.recover_flush rc ~crashed:[ 5 ]);
  (* the flag owner (tid 0 outside a simulation) crashing re-parks both
     entries and clears the flag *)
  checki "two stranded entries re-parked" 2
    (D.recover_flush rc ~crashed:[ 0 ]);
  checkb "parked again under the dead owner" true
    (List.sort compare (D.parked rc) = [ 7; 9 ]);
  checkb "flush flag reusable" true (D.try_begin_flush rc);
  D.end_flush rc

(* --- regression: a crashed thread pinning an epoch no longer blocks
   reclamation once recovery evicts its slot --- *)

let test_crashed_pin_no_longer_blocks () =
  let rec attempt n =
    if n > 200 then
      Alcotest.fail "no crash landed while the victim held an epoch pin"
    else begin
      let heap = Heap.create ~name:"rec-ebr" () in
      let metrics = Metrics.create () in
      let env =
        Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ~metrics heap
      in
      let stack = ref None in
      let resumes = ref 0 in
      let outcome =
        Sched.run ~max_steps:200_000
          ~inject_crash:(fun ~tid ~step:_ ->
            tid = 1
            &&
            (incr resumes;
             !resumes - 1 = n))
          Strategy.Round_robin
          (fun () ->
            let t = Ebr_stack.create env in
            stack := Some t;
            let work () =
              let h = Ebr_stack.register t in
              for i = 1 to 8 do
                Ebr_stack.push h i;
                ignore (Ebr_stack.pop h)
              done;
              Ebr_stack.unregister h
            in
            let victim = Sched.spawn work in
            let worker = Sched.spawn work in
            Sched.join [ victim; worker ])
      in
      let e = Ebr_stack.epoch (Option.get !stack) in
      (* A pin at the current epoch still permits one advance; a dead
         pinned thread is the slot that blocks the SECOND one, forever. *)
      let advance_twice () = Epoch.try_advance e && Epoch.try_advance e in
      if outcome.Sched.crashed = [ 1 ] && not (advance_twice ()) then begin
        (* The dead thread died pinned: without eviction the epoch is
           stuck here forever and limbo nodes never free. *)
        checkb "recovery hook evicts the pinned slot" true
          (Env.run_recovery_hooks env ~crashed:[ 1 ] >= 1);
        checkb "epoch advances freely again" true (advance_twice ());
        checkb "eviction metered" true
          (Metrics.counter_value (Metrics.snapshot metrics) "lfrc.epoch_evict"
          >= 1)
      end
      else attempt (n + 1)
    end
  in
  attempt 0

(* --- MCAS descriptor adoption: crash the operation at every yield
   point; after [adopt_slot] both cells hold plain values and the
   operation is all-or-nothing --- *)

let test_mcas_descriptor_adopted () =
  let rec attempt n covered =
    if n > 300 then covered
    else begin
      let a = Cell.make 0 and b = Cell.make 0 in
      let resumes = ref 0 in
      let outcome =
        Sched.run ~max_steps:50_000
          ~inject_crash:(fun ~tid ~step:_ ->
            tid = 1
            &&
            (incr resumes;
             !resumes - 1 = n))
          Strategy.Round_robin
          (fun () ->
            let w =
              Sched.spawn (fun () -> ignore (Mcas.dcas a b 0 0 1 1))
            in
            Sched.join [ w ])
      in
      if outcome.Sched.crashed = [] then covered
      else begin
        ignore (Mcas.adopt_slot 1);
        let plain c = Cell.tag_of_raw (Atomic.get (Cell.raw c)) = 0 in
        checkb
          (Printf.sprintf "crash at resume %d: no descriptor left behind" n)
          true
          (plain a && plain b);
        let va = Mcas.read a and vb = Mcas.read b in
        checkb
          (Printf.sprintf "crash at resume %d: all-or-nothing (got %d,%d)" n
             va vb)
          true
          ((va, vb) = (0, 0) || (va, vb) = (1, 1));
        attempt (n + 1) (covered + 1)
      end
    end
  in
  let covered = attempt 0 0 in
  checkb
    (Printf.sprintf "swept %d mcas yield points (want >= 3)" covered)
    true (covered >= 3)

let () =
  Alcotest.run "recovery"
    [
      ( "sweeps",
        [
          Alcotest.test_case "snark eager leak-free" `Quick
            test_snark_sweep_leak_free;
          Alcotest.test_case "treiber deferred-rc(4) leak-free" `Quick
            test_treiber_deferred_sweep_leak_free;
          Alcotest.test_case "E11 matrix all rc modes" `Quick
            test_matrix_leak_free_all_modes;
          Alcotest.test_case "adoption counters fire in every mode" `Quick
            test_recovery_adopts_in_every_mode;
        ] );
      ( "multi-crash",
        [
          Alcotest.test_case "spec round-trip" `Quick
            test_multi_crash_spec_roundtrip;
          Alcotest.test_case "two victims recovered" `Quick
            test_multi_crash_recovers;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "registries adopt newest first" `Quick
            test_registry_order;
          Alcotest.test_case "locals adopt newest first" `Quick
            test_locals_order;
          Alcotest.test_case "crashed flusher restaged" `Quick
            test_crashed_flusher_restaged;
          Alcotest.test_case "crashed epoch pin evicted" `Quick
            test_crashed_pin_no_longer_blocks;
          Alcotest.test_case "mcas descriptors adopted" `Quick
            test_mcas_descriptor_adopted;
        ] );
    ]
