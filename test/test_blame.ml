(* Tests for contention blame attribution: exact victim->culprit charging
   under the deterministic scheduler, determinism of the aggregates,
   interaction with deferred-rc coalescing and crash adoption, the
   metrics counter-identity guarantee, and coverage of the CLI's
   workloads: every workload in every rc mode names pairs, and on the
   snark-fixed deque the named pairs explain rc contention. *)

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
module Common = Lfrc_harness.Common
module Scenario = Lfrc_harness.Scenario

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let treiber = List.assoc "treiber" Common.workloads

(* One contended stack run with blame attached; fresh heap and env. *)
let run_treiber ?(blame = Blame.disabled) ?(metrics = Metrics.disabled)
    ?rc_mode ?(workers = 4) ?(ops = 200) ~seed () =
  Common.run_workload ?rc_mode
    { Obs.disabled with metrics; blame }
    ~workers ~ops_per_worker:ops ~seed treiber

(* --- exact attribution --- *)

(* A fresh heap and an environment over it with [blame] attached, and a
   root cell on that heap; sites are opened through the environment's
   span entry points. *)
let blame_env name blame =
  let heap = Heap.create ~name () in
  let env = Env.create ~dcas_impl:Dcas.Atomic_step ~blame heap in
  (env, Env.dcas env, Heap.root heap ~name:"X" ())

(* Run [f] inside a span of the site named [site]. *)
let in_site env site f =
  let key = Metrics.key site in
  Env.span_begin env key;
  f ();
  Env.span_end env key

(* Two threads, explicitly sequenced via join: the winner writes 42 under
   one site label, then the victim CASes against a stale expected value.
   Exactly one pair must exist and it must name both sites. *)
let test_known_winner_blamed () =
  let blame = Blame.create () in
  let env, d, cell = blame_env "blame-fixture" blame in
  ignore
    (Sched.run ~max_steps:10_000 (Strategy.Random 1) (fun () ->
         let winner =
           Sched.spawn (fun () ->
               in_site env "winner.write" (fun () -> Dcas.write d cell 42))
         in
         Sched.join [ winner ];
         let victim =
           Sched.spawn (fun () ->
               in_site env "victim.cas" (fun () ->
                   checkb "stale cas fails" false (Dcas.cas d cell 0 7)))
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
  let blame = Blame.create () in
  let env, d, cell = blame_env "blame-win" blame in
  ignore
    (Sched.run ~max_steps:10_000 (Strategy.Random 1) (fun () ->
         in_site env "solo.cas" (fun () ->
             checkb "cas wins" true (Dcas.cas d cell 0 1);
             checkb "cas wins again" true (Dcas.cas d cell 1 2))));
  checki "no wasted attempts" 0 (Blame.total_wasted blame);
  checki "no pairs" 0 (List.length (Blame.rows blame))

(* A stamp is updated in place: re-stamping a cell, inside an open span,
   allocates nothing — the substrate's write, the environment's site
   lookup and the stamp together. *)
let test_stamp_allocates_nothing () =
  let blame = Blame.create () in
  let env, d, cell = blame_env "blame-stamp" blame in
  let key = Metrics.key "stamp.site" in
  Env.span_begin env key;
  Dcas.write d cell 7;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    Dcas.write d cell 7
  done;
  let per_op = (Gc.minor_words () -. before) /. Float.of_int n in
  Env.span_end env key;
  Alcotest.(check (float 0.)) "stamp words/op" 0. per_op;
  checki "nothing pending" 0 (Blame.pending blame)

(* --- determinism --- *)

let test_deterministic_aggregates () =
  let one () =
    let blame = Blame.create () in
    run_treiber ~blame ~seed:5 ();
    (Json.to_string (Blame.to_json blame), Blame.matrix blame)
  in
  let j1, m1 = one () and j2, m2 = one () in
  checks "to_json byte-identical across runs" j1 j2;
  checks "matrix byte-identical across runs" m1 m2;
  checkb "the run actually contended" true (String.length m1 > 0)

(* --- blame totals tie out against the DCAS substrate --- *)

(* The substrate's failures as its observer counted them. *)
let dcas_failures metrics =
  Metrics.count metrics (Metrics.key "dcas.cas_failures")
  + Metrics.count metrics (Metrics.key "dcas.dcas_failures")

let test_totals_match_dcas_counters () =
  let blame = Blame.create () and metrics = Metrics.create () in
  run_treiber ~blame ~metrics ~seed:3 ();
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
  run_treiber ~blame ~metrics
    ~rc_mode:(Env.Deferred_rc { epoch = 1_000_000 })
    ~workers:1 ~seed:2 ();
  let s = Metrics.snapshot metrics in
  checkb "deltas parked" true
    (Metrics.counter_value s "lfrc.defer_inc"
     + Metrics.counter_value s "lfrc.defer_dec"
     > 0);
  checki "uncontended run charges nothing" 0 (Blame.total_wasted blame);
  checki "no rc blame at park" 0 (Blame.rc_wasted blame)

let test_deferred_contended_still_ties_out () =
  let blame = Blame.create () and metrics = Metrics.create () in
  run_treiber ~blame ~metrics
    ~rc_mode:(Env.Deferred_rc { epoch = Scenario.deferred_rc_epoch })
    ~seed:3 ();
  checki "deferred mode: charges still one per failed compare"
    (dcas_failures metrics) (Blame.total_wasted blame)

(* --- crash adoption: pending blame is folded in, not leaked --- *)

let test_chaos_adopts_pending () =
  let module Chaos = Lfrc_faults.Chaos in
  let module Fault_plan = Lfrc_faults.Fault_plan in
  let blame = Blame.create () in
  let crashed_runs = ref 0 and last_env = ref None in
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
    | Chaos.Completed { crashed; _ } when crashed <> [] ->
        incr crashed_runs;
        last_env := Some r.Chaos.env
    | _ -> ());
    checki
      (Printf.sprintf "seed %d: nothing pending after the run" seed)
      0 (Blame.pending blame)
  done;
  checkb "some runs crashed a thread" true (!crashed_runs > 0);
  let frames, chains = Blame.adopted blame in
  checkb "crashed threads' open state was adopted" true (frames + chains > 0);
  (* Adoption is idempotent: the threads' spans and chains are gone
     afterwards. *)
  let env = Option.get !last_env in
  checki "re-adopt finds no frames" 0
    (fst (Env.adopt_spans env ~crashed:[ 1 ]));
  checki "re-adopt finds no chains" 0
    (snd (Env.adopt_spans env ~crashed:[ 1 ]))

(* --- counter identity: blame writes nothing to Metrics --- *)

let test_counter_identity () =
  let snap_with blame_on =
    let metrics = Metrics.create () in
    let blame = if blame_on then Blame.create () else Blame.disabled in
    run_treiber ~blame ~metrics ~seed:9 ();
    Json.to_string (Metrics.to_json (Metrics.snapshot metrics))
  in
  checks "metrics snapshot byte-identical with blame on or off"
    (snap_with false) (snap_with true)

(* --- the Obs master switch --- *)

let test_obs_master_switch () =
  let o =
    Obs.create ~master:false ~profile:true ~blame:true ()
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

(* --- the CLI's workloads: every one names pairs in every mode --- *)

let modes =
  [
    ("eager", Env.Eager);
    ("deferred-rc", Env.Deferred_rc { epoch = Scenario.deferred_rc_epoch });
    ("wait-free", Env.Wait_free { weight = Scenario.wait_free_weight });
  ]

(* At 4 workers x 2,000 ops, seed 11, the pair counts (eager, deferred,
   wait-free) are treiber 16/10/1, msqueue 9/8/1, snark-fixed 45/20/11
   and sundell 25/11/6. *)
let test_every_workload_names_pairs () =
  List.iter
    (fun (name, workload) ->
      List.iter
        (fun (mode, rc_mode) ->
          let blame = Blame.create () in
          Common.run_workload ~rc_mode { Obs.disabled with blame } ~workers:4
            ~ops_per_worker:2_000 ~seed:11 workload;
          checkb
            (Printf.sprintf "%s %s: at least one pair" name mode)
            true
            (Blame.rows blame <> []))
        modes)
    Common.workloads

(* On the snark-fixed deque at 4 x 2,000, seed 1 (the CLI's blame
   --json run), the pairs charged on rc cells must account for at least
   half of lfrc.rc_retry: the attribution explains rc contention (27,137
   named against 16,638 retries when this test was written). *)
let test_pairs_explain_rc_retries () =
  let blame = Blame.create () and metrics = Metrics.create () in
  Common.run_workload
    { Obs.disabled with metrics; blame }
    ~workers:4 ~ops_per_worker:2_000 ~seed:1
    (List.assoc "snark-fixed" Common.workloads);
  let rows = Blame.rows blame in
  let rc_named = List.fold_left (fun n r -> n + r.Blame.b_rc) 0 rows in
  let retry = Metrics.count metrics (Metrics.key "lfrc.rc_retry") in
  checkb "pairs named" true (rows <> []);
  checki "nothing pending" 0 (Blame.pending blame);
  checkb "the run retried rc updates" true (retry > 0);
  checkb
    (Printf.sprintf "rc-named waste %d >= half of rc_retry %d" rc_named retry)
    true
    (2 * rc_named >= retry)

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
  let chrome = Json.to_string (Tracer.to_chrome_json t) in
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
      ( "allocation",
        [
          Alcotest.test_case "stamp in place" `Quick
            test_stamp_allocates_nothing;
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
      ( "workloads",
        [
          Alcotest.test_case "every workload and mode names pairs" `Quick
            test_every_workload_names_pairs;
          Alcotest.test_case "pairs explain rc retries" `Quick
            test_pairs_explain_rc_retries;
        ] );
      ( "tracer-meta",
        [
          Alcotest.test_case "exports are self-describing" `Quick
            test_tracer_meta_in_exports;
        ] );
    ]
