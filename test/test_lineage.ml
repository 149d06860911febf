(* Tests for the per-object lifecycle recorder: a full Snark push/pop
   cycle's recorded histories obey the paper's Figure 2 count semantics,
   a seeded fault-plan leak is attributed to the operation that dropped
   the last reference, and ring overflow is accounted without corrupting
   the retained tail. *)

module Heap = Lfrc_simmem.Heap
module Env = Lfrc_core.Env
module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy
module Lineage = Lfrc_obs.Lineage
module Fault_plan = Lfrc_faults.Fault_plan
module Audit = Lfrc_faults.Audit
module Chaos = Lfrc_faults.Chaos
module Deque = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- Figure 2 semantics over a full Snark push/pop cycle ---

   Every tracked object's retained history must replay as a legal count
   trajectory: born at 1 (LFRCDestroy frees at 0, so allocation hands
   out the first reference), never driven negative, freed only at 0.
   The chain check only applies to objects whose ring never wrapped —
   a wrapped ring retains a tail whose first event has earlier context. *)

let snark_cycle_body env =
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
  Sched.join workers

let test_snark_cycle_figure2 () =
  let ring = 256 in
  let lineage = Lineage.create ~ring () in
  let heap = Heap.create ~name:"lineage-snark" () in
  let env =
    Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ~lineage heap
  in
  ignore
    (Sched.run ~max_steps:2_000_000 (Strategy.Random 7) (fun () ->
         snark_cycle_body env));
  let addrs = Lineage.tracked lineage in
  checkb "tracked some objects" true (List.length addrs > 2);
  checkb "recorded events" true (Lineage.recorded lineage > 0);
  List.iter
    (fun addr ->
      let evs = Lineage.events lineage ~addr in
      let st =
        match Lineage.state lineage ~addr with
        | Some st -> st
        | None -> Alcotest.failf "addr %d tracked but stateless" addr
      in
      (* Steps never decrease along a retained history. *)
      ignore
        (List.fold_left
           (fun prev (e : Lineage.event) ->
             checkb
               (Printf.sprintf "addr %d: steps monotone (%d >= %d)" addr
                  e.Lineage.step prev)
               true
               (e.Lineage.step >= prev);
             e.Lineage.step)
           0 evs);
      if st.Lineage.st_events = List.length evs then begin
        (* Complete history: replay it as Figure 2 would. *)
        (match evs with
        | { Lineage.kind = Lineage.Alloc _; _ } :: _ -> ()
        | _ -> Alcotest.failf "addr %d: complete history must open with alloc" addr);
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
                checki
                  (Printf.sprintf "addr %d: freed only at rc 0" addr)
                  0 !rc
            | Lineage.Retire | Lineage.Defer | Lineage.Defer_inc
            | Lineage.Defer_dec | Lineage.Flush _ | Lineage.Adopt _
            | Lineage.Wborrow | Lineage.Wshare ->
                ())
          evs;
        (* Every count transition is attributed to an LFRC operation —
           the cycle never touches a count outside the instrumented API. *)
        List.iter
          (fun (e : Lineage.event) ->
            match e.Lineage.kind with
            | Lineage.Rc _ ->
                checkb
                  (Printf.sprintf "addr %d: rc event op %S is lfrc.*" addr
                     e.Lineage.op)
                  true
                  (starts_with "lfrc." e.Lineage.op)
            | _ -> ())
          evs
      end)
    addrs;
  (* The cycle pops everything it pushes: an object whose last recorded
     event is its free must have ended at rc 0. (An object freed and
     then recycled legitimately ends live at rc >= 1.) *)
  let ended_freed =
    List.filter
      (fun a ->
        match Lineage.last_event lineage ~addr:a with
        | Some { Lineage.kind = Lineage.Free _; _ } -> true
        | _ -> false)
      addrs
  in
  checkb "some nodes ended freed" true (List.length ended_freed > 0);
  List.iter
    (fun addr ->
      match Lineage.state lineage ~addr with
      | Some st ->
          checki (Printf.sprintf "addr %d: final rc" addr) 0 st.Lineage.st_rc
      | None -> ())
    ended_freed

(* --- Seeded leak attribution: crash a worker mid-run, join the audit's
   leaked ids against the lineage, and name the dropping operation.
   Same plan the CLI's [forensics --leaks] defaults to. --- *)

let test_seeded_leak_attributed () =
  let lineage = Lineage.create () in
  let spec = { Fault_plan.default with seed = 1; crashes = [ (2, 15) ] } in
  let r =
    Chaos.run ~lineage ~max_steps:400_000 ~strategy:(Strategy.Random 1) ~spec
      (fun env ->
        Lfrc_harness.Common.stack_workload ~workers:3 ~ops_per_worker:25
          ~seed:1 env)
  in
  (match r.Chaos.status with
  | Chaos.Completed { crashed = [ 2 ]; _ } -> ()
  | _ -> Alcotest.failf "expected a crashed completion (repro: %s)" r.Chaos.repro);
  let audit =
    match r.Chaos.audit with
    | Some a -> a
    | None -> Alcotest.fail "completed run must be audited"
  in
  checkb "crash leaked" true (audit.Audit.leaked > 0);
  checki "leaked_ids matches leaked count" audit.Audit.leaked
    (List.length audit.Audit.leaked_ids);
  let report = Lineage.leak_report lineage ~addrs:audit.Audit.leaked_ids in
  List.iter
    (fun id ->
      checkb
        (Printf.sprintf "report names leaked addr %d" id)
        true
        (contains report (Printf.sprintf "leak addr=%d" id)))
    audit.Audit.leaked_ids;
  (* The leaked objects' last recorded drops happened inside instrumented
     LFRC operations; the report must carry the attribution. *)
  checkb "report names the dropping op" true
    (contains report "dropped by op=lfrc.");
  List.iter
    (fun id ->
      match Lineage.last_drop lineage ~addr:id with
      | Some e ->
          checkb
            (Printf.sprintf "addr %d: drop attributed to lfrc.*" id)
            true
            (starts_with "lfrc." e.Lineage.op)
      | None -> ())
    audit.Audit.leaked_ids;
  (* Replaying the same seed reproduces the same attribution. *)
  let lineage' = Lineage.create () in
  let r' =
    Chaos.run ~lineage:lineage' ~max_steps:400_000
      ~strategy:(Strategy.Random 1) ~spec (fun env ->
        Lfrc_harness.Common.stack_workload ~workers:3 ~ops_per_worker:25
          ~seed:1 env)
  in
  (match r'.Chaos.audit with
  | Some a ->
      checkb "same leaked set" true
        (a.Audit.leaked_ids = audit.Audit.leaked_ids)
  | None -> Alcotest.fail "replay must be audited");
  checkb "same report" true
    (Lineage.leak_report lineage' ~addrs:audit.Audit.leaked_ids = report)

(* --- Ring overflow: drops are accounted globally, the retained tail is
   intact, and the timeline announces the truncation. --- *)

let test_ring_overflow_accounting () =
  let l = Lineage.create ~ring:4 () in
  Lineage.record l ~op:"test.alloc" ~addr:7 (Lineage.Alloc { gen = 1 });
  for i = 0 to 8 do
    Lineage.record_rc l ~op:"test.op" ~addr:7 ~old_rc:(i + 1)
      ~delta:(if i mod 2 = 0 then 1 else -1)
      ()
  done;
  checki "recorded counts every event" 10 (Lineage.recorded l);
  checki "dropped = recorded - ring" 6 (Lineage.dropped l);
  let evs = Lineage.events l ~addr:7 in
  checki "ring retains exactly 4" 4 (List.length evs);
  (* The retained tail is the last four records, uncorrupted. *)
  List.iteri
    (fun i (e : Lineage.event) ->
      match e.Lineage.kind with
      | Lineage.Rc { old_rc; _ } -> checki "tail old_rc" (6 + i) old_rc
      | _ -> Alcotest.fail "tail should be rc transitions")
    evs;
  (match Lineage.state l ~addr:7 with
  | Some st ->
      checki "st_events counts overwritten too" 10 st.Lineage.st_events
  | None -> Alcotest.fail "addr 7 must have state");
  checkb "timeline marks truncation" true
    (contains (Lineage.timeline l ~addr:7) "dropped");
  (* A second object's ring is independent: nothing dropped there. *)
  Lineage.record l ~addr:9 (Lineage.Alloc { gen = 1 });
  checki "addr 9 unaffected" 1 (List.length (Lineage.events l ~addr:9));
  checki "global drop count unchanged" 6 (Lineage.dropped l)

let test_disabled_is_noop () =
  let l = Lineage.disabled in
  checkb "disabled" false (Lineage.enabled l);
  Lineage.record l ~addr:1 (Lineage.Alloc { gen = 1 });
  Lineage.record_rc l ~addr:1 ~old_rc:1 ~delta:(-1) ();
  checki "records nothing" 0 (Lineage.recorded l);
  checkb "tracks nothing" true (Lineage.tracked l = []);
  (* create with a non-positive ring is the disabled singleton. *)
  checkb "ring<=0 disables" false (Lineage.enabled (Lineage.create ~ring:0 ()))

(* The environment names each event's op: its innermost open span, or
   "?" with none open. The count moves come from [Lfrc.add_to_rc], which
   opens no span of its own. *)
let test_op_context_attribution () =
  let l = Lineage.create () in
  let heap = Heap.create ~name:"lineage-op-context" () in
  let env =
    Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ~lineage:l heap
  in
  let p =
    Heap.alloc heap (Lfrc_simmem.Layout.make ~name:"n" ~n_ptrs:0 ~n_vals:0)
  in
  let outer = Lfrc_obs.Metrics.key "outer"
  and inner = Lfrc_obs.Metrics.key "inner" in
  Env.span_begin env outer;
  Env.span_begin env inner;
  ignore (Lfrc_core.Lfrc.add_to_rc env p 1);
  Env.span_end env inner;
  ignore (Lfrc_core.Lfrc.add_to_rc env p (-1));
  Env.span_end env outer;
  ignore (Lfrc_core.Lfrc.add_to_rc env p (-1));
  let rc_events =
    List.filter
      (fun (e : Lineage.event) ->
        match e.Lineage.kind with Lineage.Rc _ -> true | _ -> false)
      (Lineage.events l ~addr:p)
  in
  match rc_events with
  | [ a; b; c ] ->
      Alcotest.(check string) "innermost wins" "inner" a.Lineage.op;
      Alcotest.(check string) "pops back to outer" "outer" b.Lineage.op;
      Alcotest.(check string) "outside any op" "?" c.Lineage.op
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let () =
  Alcotest.run "lineage"
    [
      ( "figure2",
        [
          Alcotest.test_case "snark cycle histories" `Quick
            test_snark_cycle_figure2;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "seeded leak attributed" `Quick
            test_seeded_leak_attributed;
        ] );
      ( "ring",
        [
          Alcotest.test_case "overflow accounting" `Quick
            test_ring_overflow_accounting;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "op context" `Quick test_op_context_attribution;
        ] );
    ]
