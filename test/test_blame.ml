(* Tests for contention blame attribution: exact victim->culprit charging
   under the deterministic scheduler, determinism of the aggregates,
   interaction with deferred-rc coalescing and crash adoption, the
   metrics counter-identity guarantee, and the bench --compare gating
   policy (including the report-only grace for new histogram keys). *)

module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy
module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module Env = Lfrc_core.Env
module Metrics = Lfrc_obs.Metrics
module Tracer = Lfrc_obs.Tracer
module Profile = Lfrc_obs.Profile
module Blame = Lfrc_obs.Blame
module Obs = Lfrc_obs.Obs
module Json = Lfrc_util.Json
module Bc = Lfrc_harness.Bench_compare

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let treiber = List.assoc "treiber" Lfrc_harness.Common.workloads

(* One contended stack run with blame attached; fresh heap and env. *)
let run_treiber ?(blame = Blame.disabled) ?(metrics = Metrics.disabled)
    ?rc_mode ?(workers = 4) ?(ops = 200) ~seed () =
  let heap = Heap.create ~name:"blame-test" () in
  let env =
    Env.create ~dcas_impl:Dcas.Atomic_step ?rc_mode ~metrics ~blame heap
  in
  ignore
    (Sched.run ~max_steps:100_000_000 (Strategy.Random seed) (fun () ->
         treiber ~workers ~ops_per_worker:ops ~seed env));
  env

(* --- exact attribution --- *)

(* Two threads, explicitly sequenced via join: the winner writes 42 under
   one site label, then the victim CASes against a stale expected value.
   Exactly one pair must exist and it must name both sites. *)
let test_known_winner_blamed () =
  let heap = Heap.create ~name:"blame-fixture" () in
  let cell = Heap.root heap ~name:"X" () in
  let d = Dcas.create Dcas.Atomic_step in
  let blame = Blame.create () in
  Env.observe_dcas ~blame d;
  ignore
    (Sched.run ~max_steps:10_000 (Strategy.Random 1) (fun () ->
         let winner =
           Sched.spawn (fun () ->
               Blame.op_begin blame "winner.write";
               Dcas.write d cell 42;
               Blame.op_end blame)
         in
         Sched.join [ winner ];
         let victim =
           Sched.spawn (fun () ->
               Blame.op_begin blame "victim.cas";
               checkb "stale cas fails" false (Dcas.cas d cell 0 7);
               Blame.op_end blame)
         in
         Sched.join [ victim ]));
  match Blame.rows blame with
  | [ r ] ->
      checks "victim" "victim.cas" r.Blame.b_victim;
      checks "culprit" "winner.write" r.Blame.b_culprit;
      checki "one wasted attempt" 1 r.Blame.b_wasted;
      checki "not an rc cell" 0 r.Blame.b_rc;
      checkb "culprit kind is write" true
        (List.mem_assoc "write" r.Blame.b_kinds);
      checkb "staleness >= 0" true (r.Blame.b_steps >= 0);
      checki "nothing pending" 0 (Blame.pending blame)
  | rows ->
      Alcotest.failf "expected exactly one pair, got %d" (List.length rows)

(* A successful CAS must stamp, not charge. *)
let test_winning_cas_not_charged () =
  let heap = Heap.create ~name:"blame-win" () in
  let cell = Heap.root heap ~name:"X" () in
  let d = Dcas.create Dcas.Atomic_step in
  let blame = Blame.create () in
  Env.observe_dcas ~blame d;
  ignore
    (Sched.run ~max_steps:10_000 (Strategy.Random 1) (fun () ->
         Blame.op_begin blame "solo.cas";
         checkb "cas wins" true (Dcas.cas d cell 0 1);
         checkb "cas wins again" true (Dcas.cas d cell 1 2);
         Blame.op_end blame));
  checki "no wasted attempts" 0 (Blame.total_wasted blame);
  checki "no pairs" 0 (List.length (Blame.rows blame))

(* --- determinism --- *)

let test_deterministic_aggregates () =
  let one () =
    let blame = Blame.create () in
    ignore (run_treiber ~blame ~seed:5 ());
    (Blame.to_json blame, Blame.matrix blame)
  in
  let j1, m1 = one () and j2, m2 = one () in
  checks "to_json byte-identical across runs" j1 j2;
  checks "matrix byte-identical across runs" m1 m2;
  checkb "the run actually contended" true (String.length m1 > 0)

(* --- blame totals tie out against the DCAS substrate --- *)

(* The substrate's failures as its observer counted them. *)
let dcas_failures metrics =
  Metrics.count metrics "dcas.cas_failures"
  + Metrics.count metrics "dcas.dcas_failures"

let test_totals_match_dcas_counters () =
  let blame = Blame.create () and metrics = Metrics.create () in
  ignore (run_treiber ~blame ~metrics ~seed:3 ());
  checki "every failed compare charged exactly once" (dcas_failures metrics)
    (Blame.total_wasted blame);
  checkb "rc charges are a subset" true
    (Blame.rc_wasted blame <= Blame.total_wasted blame);
  checkb "stack contention reaches the rc cells" true
    (Blame.rc_wasted blame > 0);
  (match Blame.top_rc_pair blame with
  | Some (_, _, pct) -> checkb "top rc pair has a share" true (pct > 0.)
  | None -> Alcotest.fail "expected a top rc pair");
  checki "clean run leaves nothing pending" 0 (Blame.pending blame)

(* --- deferred-rc: parked deltas are not blamed at park --- *)

let test_deferred_park_not_blamed () =
  (* Single worker, epoch far beyond the op count: every count update
     parks, nothing contends, so defer traffic shows in metrics while
     blame stays empty — parked deltas are charged only when their flush
     CAS actually loses, never at park time. *)
  let blame = Blame.create () in
  let metrics = Metrics.create () in
  ignore
    (run_treiber ~blame ~metrics
       ~rc_mode:(Env.Deferred_rc { epoch = 1_000_000 })
       ~workers:1 ~seed:2 ());
  let s = Metrics.snapshot metrics in
  checkb "deltas parked" true
    (Metrics.counter_value s "lfrc.defer_inc"
     + Metrics.counter_value s "lfrc.defer_dec"
     > 0);
  checki "uncontended run charges nothing" 0 (Blame.total_wasted blame);
  checki "no rc blame at park" 0 (Blame.rc_wasted blame)

let test_deferred_contended_still_ties_out () =
  let blame = Blame.create () and metrics = Metrics.create () in
  ignore
    (run_treiber ~blame ~metrics
       ~rc_mode:
         (Env.Deferred_rc { epoch = Lfrc_harness.Scenario.deferred_rc_epoch })
       ~seed:3 ());
  checki "deferred mode: charges still one per failed compare"
    (dcas_failures metrics) (Blame.total_wasted blame)

(* --- crash adoption: pending blame is folded in, not leaked --- *)

let test_chaos_adopts_pending () =
  let module Chaos = Lfrc_faults.Chaos in
  let module Fault_plan = Lfrc_faults.Fault_plan in
  let blame = Blame.create () in
  let crashed_runs = ref 0 in
  for seed = 1 to 5 do
    let spec = { Fault_plan.default with seed; crashes = [ (1, 10) ] } in
    let r =
      Chaos.run ~blame ~max_steps:400_000
        ~strategy:(Strategy.Random seed) ~spec (fun env ->
          match treiber ~workers:3 ~ops_per_worker:25 ~seed env with
          | () -> ()
          | exception Heap.Simulated_oom -> ())
    in
    (match r.Chaos.status with
    | Chaos.Completed { crashed; _ } when crashed <> [] -> incr crashed_runs
    | _ -> ());
    checki
      (Printf.sprintf "seed %d: nothing pending after the run" seed)
      0 (Blame.pending blame)
  done;
  checkb "some runs crashed a thread" true (!crashed_runs > 0);
  let frames, chains = Blame.adopted blame in
  checkb "crashed threads' open state was adopted" true (frames + chains > 0);
  (* Adoption is idempotent: the threads' state is gone afterwards. *)
  checki "re-adopt finds no frames" 0 (fst (Blame.adopt blame ~crashed:[ 1 ]));
  checki "re-adopt finds no chains" 0 (snd (Blame.adopt blame ~crashed:[ 1 ]))

(* --- counter identity: blame writes nothing to Metrics --- *)

let test_counter_identity () =
  let snap_with blame_on =
    let metrics = Metrics.create () in
    let blame = if blame_on then Blame.create () else Blame.disabled in
    ignore (run_treiber ~blame ~metrics ~seed:9 ());
    Metrics.to_json (Metrics.snapshot metrics)
  in
  checks "metrics snapshot byte-identical with blame on or off"
    (snap_with false) (snap_with true)

(* --- the Obs master switch --- *)

let test_obs_master_switch () =
  let o =
    Obs.create ~master:false ~metrics:true ~trace_capacity:64
      ~lineage_ring:16 ~profile:true ~blame:true ()
  in
  checkb "master off: metrics dead" false (Metrics.enabled o.Obs.metrics);
  checkb "master off: tracer dead" false (Tracer.enabled o.Obs.tracer);
  checkb "master off: profile dead" false (Profile.enabled o.Obs.profile);
  checkb "master off: blame dead" false (Blame.enabled o.Obs.blame);
  checkb "master off: bundle reports disabled" false (Obs.enabled o);
  let on = Obs.create ~blame:true () in
  checkb "defaults: metrics live" true (Metrics.enabled on.Obs.metrics);
  checkb "blame opt-in honored" true (Blame.enabled on.Obs.blame);
  checkb "trace stays opt-in" false (Tracer.enabled on.Obs.tracer)

(* --- bench --compare gating policy --- *)

let doc s =
  match Json.parse s with Ok d -> d | Error e -> Alcotest.fail e

let baseline_doc =
  doc
    {|{"workloads":[
        {"structure":"treiber","ops_per_sec":1000.0,
         "metrics":{"counters":{"dcas.cas_attempts":100},
                    "histograms":{"op.latency":{"n":50,"mean":1.0,"p99":3.0}}}}]}|}

let test_compare_new_histogram_report_only () =
  (* A current run that adds a histogram key (a new instrument) must be
     reported but not gated — the grace PR 7 gave new workloads and
     counters, extended to histograms. *)
  let current =
    doc
      {|{"workloads":[
          {"structure":"treiber","ops_per_sec":990.0,
           "metrics":{"counters":{"dcas.cas_attempts":100},
                      "histograms":{"op.latency":{"n":50,"mean":1.1,"p99":3.1},
                                    "rc.retry_burst":{"n":17,"mean":2.0}}}}]}|}
  in
  let v = Bc.diff ~threshold:30.0 ~current ~baseline:baseline_doc in
  checkb "still passes" true (Bc.ok v);
  checki "new histogram listed" 1 (List.length v.Bc.hist_new);
  let wl, key = List.hd v.Bc.hist_new in
  checks "workload" "treiber" wl;
  checks "key" "rc.retry_burst" key;
  checki "no histogram drift" 0 (List.length v.Bc.hist_drift);
  (* ...and the rendered report names it. *)
  let r =
    Bc.render ~threshold:30.0 ~current_file:"cur" ~baseline_file:"base" v
  in
  checkb "render mentions the new histogram" true
    (let a = "rc.retry_burst" in
     let la = String.length a and ls = String.length r in
     let rec go i = i + la <= ls && (String.sub r i la = a || go (i + 1)) in
     go 0)

let test_compare_histogram_n_drift_gates () =
  (* A matched histogram whose observation count moved >= 5% is behavior
     drift (the count is deterministic) and must gate. *)
  let current =
    doc
      {|{"workloads":[
          {"structure":"treiber","ops_per_sec":1000.0,
           "metrics":{"counters":{"dcas.cas_attempts":100},
                      "histograms":{"op.latency":{"n":70,"mean":1.0,"p99":3.0}}}}]}|}
  in
  let v = Bc.diff ~threshold:30.0 ~current ~baseline:baseline_doc in
  checkb "gates" false (Bc.ok v);
  checki "one histogram drift" 1 (List.length v.Bc.hist_drift);
  let d = List.hd v.Bc.hist_drift in
  checks "key" "op.latency" d.Bc.key;
  checkb "pct is +40%" true (Float.abs (d.Bc.pct -. 40.0) < 0.01)

let test_compare_counter_and_ops_policy () =
  let current =
    doc
      {|{"workloads":[
          {"structure":"treiber","ops_per_sec":600.0,
           "metrics":{"counters":{"dcas.cas_attempts":100,"lfrc.blame":7},
                      "histograms":{"op.latency":{"n":50,"mean":1.0,"p99":3.0}}}},
          {"structure":"msqueue","ops_per_sec":500.0,
           "metrics":{"counters":{"dcas.cas_attempts":10}}}]}|}
  in
  let v = Bc.diff ~threshold:30.0 ~current ~baseline:baseline_doc in
  checkb "ops/sec -40% gates at 30%" false (Bc.ok v);
  checki "one regression" 1 (List.length v.Bc.regressions);
  checki "new counter is report-only" 1 (List.length v.Bc.counter_new);
  checki "no counter drift" 0 (List.length v.Bc.counter_drift);
  checkb "new workload is report-only" true
    (List.exists (fun (r : Bc.row) -> r.Bc.name = "msqueue" && r.Bc.is_new)
       v.Bc.rows);
  (* The same diff at a 50% threshold passes. *)
  let v50 = Bc.diff ~threshold:50.0 ~current ~baseline:baseline_doc in
  checkb "wider threshold passes" true (Bc.ok v50);
  (* --explain on the regressed diff names the drifted pair source. *)
  let e = Bc.explain ~current ~baseline:baseline_doc v in
  checkb "explain names the regressed workload" true
    (let a = "treiber" in
     let la = String.length a and ls = String.length e in
     let rec go i = i + la <= ls && (String.sub e i la = a || go (i + 1)) in
     go 0)

let test_compare_vanished_counter_is_zero () =
  (* Registries only serialize non-zero series, so a mode that newly
     reports lfrc.rc_retry = 0 simply omits the key. The diff must read
     the omission as 0 on a matched key — a -100% drift on the baseline
     value — not as a missing instrument. *)
  let baseline =
    doc
      {|{"workloads":[
          {"structure":"treiber","ops_per_sec":1000.0,
           "metrics":{"counters":{"dcas.cas_attempts":100,"lfrc.rc_retry":40}}}]}|}
  in
  let current =
    doc
      {|{"workloads":[
          {"structure":"treiber","ops_per_sec":1000.0,
           "metrics":{"counters":{"dcas.cas_attempts":100}}}]}|}
  in
  let v = Bc.diff ~threshold:30.0 ~current ~baseline in
  checkb "vanished counter gates as drift" false (Bc.ok v);
  checki "exactly one counter drift" 1 (List.length v.Bc.counter_drift);
  let d = List.hd v.Bc.counter_drift in
  checks "key" "lfrc.rc_retry" d.Bc.key;
  checkb "current side compares as 0" true (d.Bc.cur = 0.);
  checkb "pct is -100%" true (Float.abs (d.Bc.pct +. 100.0) < 0.01);
  (* The matched, unchanged counter stays quiet, and nothing lands in the
     report-only new-counter bucket. *)
  checki "no new counters" 0 (List.length v.Bc.counter_new);
  (* Symmetric case: identical docs with an explicit zero on both sides
     stay green. *)
  let both_zero =
    doc
      {|{"workloads":[
          {"structure":"treiber","ops_per_sec":1000.0,
           "metrics":{"counters":{"dcas.cas_attempts":100,"lfrc.rc_retry":0}}}]}|}
  in
  let v0 = Bc.diff ~threshold:30.0 ~current ~baseline:both_zero in
  checkb "zero baseline never gates" true (Bc.ok v0)

(* --- tracer metadata: saved traces are self-describing --- *)

let test_tracer_meta_in_exports () =
  let t = Tracer.create ~capacity:16 in
  Tracer.set_meta t [ ("seed", "7"); ("rc_mode", "eager") ];
  ignore
    (Sched.run ~max_steps:1_000 (Strategy.Random 1) (fun () ->
         Tracer.emit t Tracer.Instant "tick"));
  let has affix s =
    let la = String.length affix and ls = String.length s in
    let rec go i = i + la <= ls && (String.sub s i la = affix || go (i + 1)) in
    go 0
  in
  let chrome = Tracer.to_chrome_json t in
  checkb "chrome header carries metadata object" true
    (has {|"metadata"|} chrome);
  checkb "chrome header carries the seed" true (has {|"seed":"7"|} chrome);
  let timeline = Tracer.to_timeline t in
  checkb "timeline footer carries the seed" true (has "meta seed=7" timeline);
  checkb "timeline footer carries rc_mode" true
    (has "meta rc_mode=eager" timeline)

let () =
  Alcotest.run "blame"
    [
      ( "attribution",
        [
          Alcotest.test_case "known winner blamed exactly" `Quick
            test_known_winner_blamed;
          Alcotest.test_case "winning cas not charged" `Quick
            test_winning_cas_not_charged;
          Alcotest.test_case "totals tie out vs dcas counters" `Quick
            test_totals_match_dcas_counters;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "aggregates byte-identical" `Quick
            test_deterministic_aggregates;
        ] );
      ( "deferred-rc",
        [
          Alcotest.test_case "parked deltas not blamed" `Quick
            test_deferred_park_not_blamed;
          Alcotest.test_case "contended deferred ties out" `Quick
            test_deferred_contended_still_ties_out;
        ] );
      ( "crash",
        [
          Alcotest.test_case "chaos adopts pending blame" `Quick
            test_chaos_adopts_pending;
        ] );
      ( "identity",
        [
          Alcotest.test_case "metrics identical with blame on/off" `Quick
            test_counter_identity;
          Alcotest.test_case "obs master switch" `Quick test_obs_master_switch;
        ] );
      ( "bench-compare",
        [
          Alcotest.test_case "new histogram is report-only" `Quick
            test_compare_new_histogram_report_only;
          Alcotest.test_case "histogram n drift gates" `Quick
            test_compare_histogram_n_drift_gates;
          Alcotest.test_case "counter/ops policy" `Quick
            test_compare_counter_and_ops_policy;
          Alcotest.test_case "vanished counter compares as 0" `Quick
            test_compare_vanished_counter_is_zero;
        ] );
      ( "tracer-meta",
        [
          Alcotest.test_case "exports are self-describing" `Quick
            test_tracer_meta_in_exports;
        ] );
    ]
