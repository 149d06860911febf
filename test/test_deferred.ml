(* Unit tests for the deferred-rc coalescing mode: parked deltas cancel
   without heap CASes, zero-detection fires at flush (and only at flush),
   the epoch budget forces a flush on buffer overflow, the pre-audit
   flush keeps crash forensics free of phantom leaks, and lifecycle
   histories recorded in deferred mode still replay under the paper's
   Figure 2 count semantics (the Rc events a flush emits carry the moves;
   Defer_inc/Defer_dec/Flush markers move nothing). *)

module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Env = Lfrc_core.Env
module Lfrc = Lfrc_core.Lfrc
module Metrics = Lfrc_obs.Metrics
module Lineage = Lfrc_obs.Lineage
module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy
module Chaos = Lfrc_faults.Chaos
module Fault_plan = Lfrc_faults.Fault_plan
module Scenario = Lfrc_harness.Scenario
module Deque = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let layout = Layout.make ~name:"deferred-node" ~n_ptrs:1 ~n_vals:1

let counter metrics key = Metrics.counter_value (Metrics.snapshot metrics) key

let fresh ?(rc_mode = Env.Deferred_rc { epoch = 1_024 }) name =
  let metrics = Metrics.create () in
  let heap = Heap.create ~name () in
  let env =
    Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step
      ~rc_mode ~metrics heap
  in
  (env, heap, metrics)

(* --- flush-on-zero: frees happen at the flush, not before --- *)

let test_flush_on_zero () =
  let env, heap, metrics = fresh "deferred-zero" in
  let root = Heap.root heap ~name:"root" () in
  let p = Lfrc.alloc env layout in
  Lfrc.store env ~dst:root p;
  (* parks +1 on p *)
  Lfrc.destroy env p;
  (* parks -1 on p: nets to zero in the buffer, no heap CAS *)
  checki "defer_inc recorded" 1 (counter metrics "lfrc.defer_inc");
  checki "defer_dec recorded" 1 (counter metrics "lfrc.defer_dec");
  checki "no flush CAS from a cancelled pair" 0
    (counter metrics "lfrc.rc_flush_cas");
  checki "nothing freed while the root holds it" 0
    (counter metrics "heap.frees");
  Lfrc.store env ~dst:root Heap.null;
  (* the dropped reference parks; the object stays allocated ... *)
  checki "drop parked, not applied" 0 (counter metrics "heap.frees");
  (* ... until the flush nets it to zero and frees it. *)
  let freed = Lfrc.flush env in
  checki "flush reclaimed exactly the one object" 1 freed;
  checki "freed at flush" 1 (counter metrics "heap.frees");
  checkb "buffers empty after flush" true (Env.in_transit env = []);
  Lfrc_simmem.Report.assert_no_leaks heap

(* --- flush order: the schedule of every deferred run depends on it ---

   A flush lands larger nets first, so a count dips toward zero only once
   its pending increments are in, and breaks ties in ascending address
   order, whatever order the deltas were parked in. A [Dcas] observer
   records the landed CASes; the order must be exactly that, one CAS per
   address with a nonzero net. *)

module D = Lfrc_core.Rc_deferred

(* [n] objects with count 10 each, so no net below -9 frees one. *)
let order_fixture name n =
  let heap = Heap.create ~name () in
  let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
  let objs = Array.init n (fun _ -> Lfrc.alloc env layout) in
  Array.iter (fun p -> Lfrc_simmem.Cell.set (Heap.rc_cell heap p) 10) objs;
  (env, heap, objs)

(* Flush [d] and return the landed CASes as (net, address), in order. *)
let flush_log d env heap objs =
  let addr_of_cell = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      Hashtbl.add addr_of_cell (Lfrc_simmem.Cell.id (Heap.rc_cell heap p)) p)
    objs;
  let landed = ref [] in
  let ignore2 _ _ = () in
  Lfrc_atomics.Dcas.set_observer (Env.dcas env)
    (Some
       {
         Lfrc_atomics.Dcas.on_read = ignore2;
         on_write = ignore2;
         on_rmw = ignore;
         on_cas =
           (fun c ~old_v ~new_v ~ok ->
             if ok then
               landed :=
                 ( new_v - old_v,
                   Hashtbl.find addr_of_cell (Lfrc_simmem.Cell.id c) )
                 :: !landed);
         on_dcas = (fun _ _ ~old0:_ ~old1:_ ~new0:_ ~new1:_ ~ok:_ -> ());
         on_spurious_cas = ignore;
         on_spurious_dcas = ignore;
       });
  checki "nothing dies" 0 (D.flush d env);
  checkb "nothing left parked" true (D.anchors d = []);
  List.rev !landed

let test_flush_order () =
  let env, heap, objs = order_fixture "deferred-order" 6 in
  let addr i = objs.(i - 1) in
  let d = D.create ~epoch:1_000_000 in
  List.iter
    (fun (i, delta) -> ignore (D.park d ~addr:(addr i) ~delta))
    [ (5, 1); (2, 1); (6, -1); (1, -1); (5, 1); (4, 1); (1, -1); (3, -1);
      (1, -1); (3, 1); (3, -1); (2, 1); (2, -1) ];
  Alcotest.(check (list (pair int int)))
    "larger nets first, then ascending address"
    [ (2, addr 5); (1, addr 2); (1, addr 4); (-1, addr 3); (-1, addr 6);
      (-3, addr 1) ]
    (flush_log d env heap objs);
  List.iter
    (fun (i, rc) ->
      checki "count moved by its net" rc
        (Lfrc_simmem.Cell.get (Heap.rc_cell heap (addr i))))
    [ (1, 7); (2, 11); (3, 9); (4, 11); (5, 12); (6, 9) ]

(* A round larger than the sort's gap table: 4,000 addresses, nets from
   -3 to +3, parked in a scrambled order. *)
let test_flush_order_large_round () =
  let n = 4000 in
  let env, heap, objs = order_fixture "deferred-order-large" n in
  let net i = (i * 5 mod 7) - 3 in
  let d = D.create ~epoch:1_000_000 in
  for k = 0 to n - 1 do
    let i = k * 1103 mod n in
    for _ = 1 to abs (net i) do
      ignore (D.park d ~addr:objs.(i) ~delta:(compare (net i) 0))
    done
  done;
  let order = flush_log d env heap objs in
  checki "one CAS per nonzero net"
    (List.length (List.filter (fun i -> net i <> 0) (List.init n Fun.id)))
    (List.length order);
  checkb "larger nets first, then ascending address" true
    (order
    = List.sort
        (fun (v1, a1) (v2, a2) ->
          if v1 <> v2 then compare v2 v1 else compare a1 a2)
        order)

(* --- transitive frees: a flush that zeroes a parent parks the
   children's decrements and keeps flushing until everything settles --- *)

let test_flush_frees_chain () =
  let env, heap, metrics = fresh "deferred-chain" in
  let root = Heap.root heap ~name:"root" () in
  (* Build a 5-node chain root -> n5 -> ... -> n1 through slot 0. Every
     node's parked +1 (stored into its parent) cancels against the -1
     from dropping the building thread's local, so the whole build costs
     zero count CASes. *)
  let chain = ref Heap.null in
  for _ = 1 to 5 do
    let p = Lfrc.alloc env layout in
    Lfrc.store env ~dst:(Heap.ptr_cell heap p 0) !chain;
    if !chain <> Heap.null then Lfrc.destroy env !chain;
    chain := p
  done;
  Lfrc.store env ~dst:root !chain;
  Lfrc.destroy env !chain;
  ignore (Lfrc.flush env);
  checki "nothing freed while the chain is reachable" 0
    (counter metrics "heap.frees");
  (* Cutting the root parks one decrement; the flush must cascade: each
     zeroed node parks its child's decrement for the next round. *)
  Lfrc.store env ~dst:root Heap.null;
  ignore (Lfrc.flush env);
  checki "flush cascaded through the whole chain" 5
    (counter metrics "heap.frees");
  Lfrc_simmem.Report.assert_no_leaks heap

(* --- epoch overflow: the budget forces a flush with no explicit call --- *)

let test_epoch_overflow_forces_flush () =
  let env, heap, metrics =
    fresh ~rc_mode:(Env.Deferred_rc { epoch = 4 }) "deferred-epoch"
  in
  let roots =
    List.init 6 (fun i -> Heap.root heap ~name:(Printf.sprintf "r%d" i) ())
  in
  List.iter
    (fun r ->
      let p = Lfrc.alloc env layout in
      Lfrc.store_alloc env ~dst:r p)
    roots;
  checki "store_alloc parks nothing" 0 (counter metrics "lfrc.defer_inc");
  checki "nothing freed yet" 0 (counter metrics "heap.frees");
  (* Each overwrite parks one decrement; the 4th park crosses the epoch
     and flushes without any explicit [Lfrc.flush]. *)
  List.iter (fun r -> Lfrc.store env ~dst:r Heap.null) roots;
  checkb "epoch flush fired" true (counter metrics "lfrc.rc_flush" >= 1);
  checkb "epoch flush freed parked objects" true
    (counter metrics "heap.frees" >= 4);
  ignore (Lfrc.flush env);
  checki "everything reclaimed" 6 (counter metrics "heap.frees");
  Lfrc_simmem.Report.assert_no_leaks heap

(* --- crash chaos: the pre-audit flush means the audit never sees a
   phantom leak from deltas still parked in (possibly dead) threads'
   buffers --- *)

let test_chaos_audit_clean_in_deferred_mode () =
  let specs =
    [
      ("none", fun seed -> { Fault_plan.default with seed });
      ( "crash",
        fun seed ->
          {
            Fault_plan.default with
            seed;
            crashes = [ (1 + (seed mod 3), 5 + (seed * 7 mod 120)) ];
          } );
    ]
  in
  List.iter
    (fun (wl_name, workload) ->
      List.iter
        (fun (f_name, spec_for) ->
          List.iter
            (fun seed ->
              let r =
                Chaos.run
                  ~rc_mode:(Env.Deferred_rc { epoch = Scenario.deferred_rc_epoch })
                  ~max_steps:400_000 ~strategy:(Strategy.Random seed)
                  ~spec:(spec_for seed) (fun env ->
                    workload ~workers:3 ~ops_per_worker:25 ~seed env)
              in
              checkb
                (Printf.sprintf "%s/%s seed %d audits clean (repro %s)"
                   wl_name f_name seed r.Chaos.repro)
                true (Chaos.ok r);
              checkb
                (Printf.sprintf "%s/%s seed %d: buffers drained pre-audit"
                   wl_name f_name seed)
                true
                (Env.in_transit r.Chaos.env = []))
            [ 1; 2; 3 ])
        specs)
    Lfrc_harness.Common.workloads

(* --- Figure 2 replay in deferred mode, the way test_lineage replays the
   eager run: complete histories open with the allocation, every Rc
   transition starts from the modeled count and never goes negative,
   frees happen only at zero — and the deferred machinery actually ran
   (defer markers and flush-attributed Rc events are present). --- *)

let test_figure2_replay_deferred () =
  let lineage = Lineage.create ~ring:256 () in
  let heap = Heap.create ~name:"deferred-figure2" () in
  let env =
    Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step
      ~rc_mode:(Env.Deferred_rc { epoch = Scenario.deferred_rc_epoch })
      ~lineage heap
  in
  ignore
    (Sched.run ~max_steps:2_000_000 (Strategy.Random 7) (fun () ->
         let t = Deque.create env in
         let workers =
           List.init 2 (fun w ->
               Sched.spawn (fun () ->
                   let h = Deque.register t in
                   for i = 1 to 6 do
                     (match Deque.try_push_right h ((10 * w) + i) with
                     | Ok () -> ignore (Deque.pop_left h)
                     | Error `Out_of_memory -> ());
                     match Deque.try_push_left h ((100 * w) + i) with
                     | Ok () -> ignore (Deque.pop_right h)
                     | Error `Out_of_memory -> ()
                   done;
                   Deque.unregister h))
         in
         Sched.join workers));
  let addrs = Lineage.tracked lineage in
  checkb "tracked some objects" true (List.length addrs > 2);
  let saw_defer = ref false and saw_flush = ref false in
  List.iter
    (fun addr ->
      let evs = Lineage.events lineage ~addr in
      let st =
        match Lineage.state lineage ~addr with
        | Some st -> st
        | None -> Alcotest.failf "addr %d tracked but stateless" addr
      in
      List.iter
        (fun (e : Lineage.event) ->
          match e.Lineage.kind with
          | Lineage.Defer_inc | Lineage.Defer_dec -> saw_defer := true
          | Lineage.Flush _ ->
              saw_flush := true;
              Alcotest.(check string)
                "flush events attributed to the flush" "lfrc.flush"
                e.Lineage.op
          | _ -> ())
        evs;
      if st.Lineage.st_events = List.length evs then begin
        (match evs with
        | { Lineage.kind = Lineage.Alloc _; _ } :: _ -> ()
        | _ ->
            Alcotest.failf "addr %d: complete history must open with alloc"
              addr);
        let rc = ref 0 in
        List.iter
          (fun (e : Lineage.event) ->
            match e.Lineage.kind with
            | Lineage.Alloc _ -> rc := 1
            | Lineage.Rc { old_rc; delta } ->
                checki
                  (Printf.sprintf "addr %d: transition starts at modeled rc"
                     addr)
                  !rc old_rc;
                checkb
                  (Printf.sprintf "addr %d: rc never negative" addr)
                  true
                  (old_rc + delta >= 0);
                rc := old_rc + delta
            | Lineage.Free _ ->
                checki (Printf.sprintf "addr %d: freed only at rc 0" addr) 0
                  !rc
            | Lineage.Retire | Lineage.Defer | Lineage.Defer_inc
            | Lineage.Defer_dec | Lineage.Flush _ | Lineage.Adopt _
            | Lineage.Wborrow | Lineage.Wshare ->
                ())
          evs
      end)
    addrs;
  checkb "deferred mode parked deltas" true !saw_defer;
  checkb "a flush applied netted deltas" true !saw_flush

(* --- coalescing on the CLI's stats run (treiber, 4 x 500, seed 7):
   rc-CAS traffic collapses against eager, and the heap sees exactly the
   same allocations and frees --- *)

let test_stats_run_coalesces () =
  let run rc_mode =
    let metrics = Metrics.create () in
    Lfrc_harness.Common.run_workload ~rc_mode
      { Lfrc_obs.Obs.disabled with metrics }
      ~workers:4 ~ops_per_worker:500 ~seed:7
      (List.assoc "treiber" Lfrc_harness.Common.workloads);
    Metrics.snapshot metrics
  in
  let e = run Env.Eager
  and d = run (Env.Deferred_rc { epoch = Scenario.deferred_rc_epoch }) in
  let c = Metrics.counter_value in
  let ce = c e "dcas.cas_attempts" and cd = c d "dcas.cas_attempts" in
  checkb
    (Printf.sprintf "cas attempts %d < 0.8 x eager %d" cd ce)
    true
    (10 * cd < 8 * ce);
  checki "heap allocs as eager" (c e "heap.allocs") (c d "heap.allocs");
  checki "heap frees as eager" (c e "heap.frees") (c d "heap.frees")

(* --- the eager paths are untouched: in eager mode the deferred
   counters stay at zero and destroy frees immediately --- *)

let test_eager_mode_unaffected () =
  let env, heap, metrics = fresh ~rc_mode:Env.Eager "deferred-off" in
  let p = Lfrc.alloc env layout in
  Lfrc.destroy env p;
  checki "destroy freed immediately" 1 (counter metrics "heap.frees");
  checki "no parked increments" 0 (counter metrics "lfrc.defer_inc");
  checki "no parked decrements" 0 (counter metrics "lfrc.defer_dec");
  checki "no flushes" 0 (counter metrics "lfrc.rc_flush");
  Lfrc_simmem.Report.assert_no_leaks heap

let () =
  Alcotest.run "deferred-rc"
    [
      ( "flush",
        [
          Alcotest.test_case "flush-on-zero" `Quick test_flush_on_zero;
          Alcotest.test_case "cascading frees" `Quick test_flush_frees_chain;
          Alcotest.test_case "epoch overflow forces flush" `Quick
            test_epoch_overflow_forces_flush;
          Alcotest.test_case "flush order" `Quick test_flush_order;
          Alcotest.test_case "flush order, large round" `Quick
            test_flush_order_large_round;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "audit clean under crash" `Quick
            test_chaos_audit_clean_in_deferred_mode;
        ] );
      ( "workload",
        [
          Alcotest.test_case "stats run coalesces" `Quick
            test_stats_run_coalesces;
        ] );
      ( "figure2",
        [
          Alcotest.test_case "deferred histories replay" `Quick
            test_figure2_replay_deferred;
        ] );
      ( "eager",
        [
          Alcotest.test_case "rc_epoch 0 unchanged" `Quick
            test_eager_mode_unaffected;
        ] );
    ]
