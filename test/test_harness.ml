(* Tests for the experiment harness: workload generators, the scenario
   engine, and the experiment registry. *)

module Opmix = Lfrc_workload.Opmix
module Scenario = Lfrc_harness.Scenario
module Experiments = Lfrc_harness.Experiments
module Strategy = Lfrc_sched.Strategy

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Opmix --- *)

let test_stream_deterministic () =
  let a = Opmix.stream Opmix.balanced_deque ~seed:1 ~thread:0 100 in
  let b = Opmix.stream Opmix.balanced_deque ~seed:1 ~thread:0 100 in
  checkb "same stream" true (a = b)

let test_stream_thread_independent () =
  let a = Opmix.stream Opmix.balanced_deque ~seed:1 ~thread:0 100 in
  let b = Opmix.stream Opmix.balanced_deque ~seed:1 ~thread:1 100 in
  checkb "different threads differ" true (a <> b)

let test_stream_respects_weights () =
  let ops = Opmix.stream Opmix.right_only ~seed:3 ~thread:0 1_000 in
  checkb "only right ops" true
    (Array.for_all
       (fun k -> k = Opmix.Push_right || k = Opmix.Pop_right)
       ops);
  let pushes =
    Array.to_list ops |> List.filter (( = ) Opmix.Push_right) |> List.length
  in
  checkb "roughly balanced" true (pushes > 400 && pushes < 600)

let test_mix_rejects_bad_weights () =
  checkb "negative weight rejected" true
    (match Opmix.make [ (Opmix.Pop_left, -1) ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "empty mix rejected" true
    (match Opmix.make [] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_mix_names () =
  checkb "named" true (Opmix.name Opmix.balanced_deque = "balanced")

(* --- Scenario engine --- *)

module Fixed = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)

let test_scenario_sequential_linearizable () =
  let o =
    Scenario.run
      (module Fixed)
      ~preload:[ 1; 2; 3 ]
      ~threads:Scenario.[ [ Pop_left; Push_right 9 ] ]
      (Strategy.Round_robin)
  in
  checkb "ok" true o.Scenario.ok;
  checkb "history recorded" true (List.length o.Scenario.history >= 5)

let test_scenario_detects_bad_impl () =
  (* A deliberately broken deque: pop_left always says empty. The
     scenario engine must flag it. *)
  let module Broken : Lfrc_structures.Container_intf.DEQUE = struct
    let name = "broken"

    type t = Fixed.t
    type handle = Fixed.handle

    let create = Fixed.create
    let register = Fixed.register
    let unregister = Fixed.unregister
    let push_left = Fixed.push_left
    let push_right = Fixed.push_right
    let try_push_left = Fixed.try_push_left
    let try_push_right = Fixed.try_push_right
    let pop_left h = ignore (Fixed.pop_left h); None
    let pop_right = Fixed.pop_right
    let destroy = Fixed.destroy
    let with_env = Fixed.with_env
  end in
  let o =
    Scenario.run
      (module Broken)
      ~preload:[ 1 ]
      ~threads:[ [ Scenario.Pop_left ] ]
      (Strategy.Round_robin)
  in
  checkb "broken implementation flagged" false o.Scenario.ok

let test_scenario_body_and_check () =
  let body, check =
    Scenario.body_and_check
      (module Fixed)
      ~preload:[ 1 ]
      ~threads:Scenario.[ [ Pop_right ]; [ Pop_left ] ]
      ()
  in
  (match
     Lfrc_sched.Explore.check ~max_schedules:2_000 ~body ~check ()
   with
  | Lfrc_sched.Explore.Ok { schedules } ->
      checkb "explored" true (schedules > 10)
  | Lfrc_sched.Explore.Budget_exhausted _ -> ()
  | Lfrc_sched.Explore.Violation { exn; _ } ->
      Alcotest.fail (Printexc.to_string exn))

(* --- Experiments registry --- *)

let test_registry_complete () =
  checki "eleven experiments" 11 (List.length Experiments.all);
  List.iter
    (fun id ->
      checkb (id ^ " registered") true (Experiments.find id <> None))
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11" ];
  checkb "case-insensitive" true (Experiments.find "e3" <> None);
  checkb "unknown rejected" true (Experiments.find "E99" = None)

let test_e7_runs_quickly () =
  (* E7 is the cheapest experiment: run it end to end as a smoke test of
     the harness plumbing. *)
  match Experiments.find "E7" with
  | None -> Alcotest.fail "E7 missing"
  | Some e ->
      let r = e.Experiments.run Scenario.default_config in
      let rendered = Lfrc_util.Table.render r.Lfrc_harness.Common.table in
      checkb "produced rows" true (String.length rendered > 100);
      checkb "metrics recorded" false
        (Lfrc_obs.Metrics.is_empty r.Lfrc_harness.Common.metrics)

(* E2's and E5's attempt and failure columns read the substrate's dcas.*
   counters, from a private registry when metrics are off: the cells must
   not depend on the flag. E5's 1-thread rows are wall-clock times. *)
let test_counts_independent_of_metrics () =
  let rows id metrics =
    match Experiments.find id with
    | None -> Alcotest.failf "%s missing" id
    | Some e ->
        let cfg =
          {
            Scenario.default_config with
            threads = 2;
            ops_per_thread = 30;
            iters = 100;
            metrics;
          }
        in
        (e.Experiments.run cfg).Lfrc_harness.Common.table
        |> Lfrc_util.Table.csv |> String.split_on_char '\n'
        |> List.filter (fun row ->
               let threads = List.nth_opt (String.split_on_char ',' row) 1 in
               not (id = "E5" && threads = Some "1"))
  in
  List.iter
    (fun id ->
      Alcotest.(check (list string))
        (id ^ " cells") (rows id true) (rows id false))
    [ "E2"; "E5" ]

(* The rc-mode headlines on E2's deques at 8 threads x 200 ops:
   deferred-rc cuts the CAS attempts by at least 20% against eager, and
   wait-free counts never retry, go through fetch-adds, and issue fewer
   CAS attempts than deferred-rc (339,604 / 122,166 / 98,749 attempts
   when this test was written). *)
let test_e2_rc_mode_headlines () =
  let e2 rc_mode =
    match Experiments.find "E2" with
    | None -> Alcotest.fail "E2 missing"
    | Some e ->
        (e.Experiments.run
           { Scenario.default_config with ops_per_thread = 200; rc_mode })
          .Lfrc_harness.Common.metrics
  in
  let c = Lfrc_obs.Metrics.counter_value in
  let eager = e2 Lfrc_core.Env.Eager
  and deferred =
    e2 (Lfrc_core.Env.Deferred_rc { epoch = Scenario.deferred_rc_epoch })
  and wait_free =
    e2 (Lfrc_core.Env.Wait_free { weight = Scenario.wait_free_weight })
  in
  let attempts s = c s "dcas.cas_attempts" in
  checkb
    (Printf.sprintf "deferred %d <= 0.8 x eager %d" (attempts deferred)
       (attempts eager))
    true
    (5 * attempts deferred <= 4 * attempts eager);
  checki "wait-free rc_retry" 0 (c wait_free "lfrc.rc_retry");
  checkb "wait-free fetch-adds" true (c wait_free "dcas.rmw" > 0);
  checkb
    (Printf.sprintf "wait-free %d < deferred %d" (attempts wait_free)
       (attempts deferred))
    true
    (attempts wait_free < attempts deferred)

(* Under --csv an experiment prints its table's CSV and nothing else:
   with metrics, profile and blame on, E2's CSV rendering has no
   "[E2 ...]" block header and no JSON line, while the aligned rendering
   keeps all three blocks. *)
let test_csv_prints_only_csv () =
  match Experiments.find "E2" with
  | None -> Alcotest.fail "E2 missing"
  | Some e ->
      let r =
        e.Experiments.run
          {
            Scenario.default_config with
            threads = 2;
            ops_per_thread = 30;
            iters = 100;
            metrics = true;
            profile = true;
            blame = true;
          }
      in
      let lines csv =
        String.split_on_char '\n' (Experiments.render ~id:"E2" ~csv r)
      in
      List.iter
        (fun line ->
          checkb
            (Printf.sprintf "csv line %S is table data" line)
            false
            (String.starts_with ~prefix:"[" line
            || String.starts_with ~prefix:"{" line))
        (lines true);
      List.iter
        (fun block ->
          checkb (block ^ " block in the aligned rendering") true
            (List.mem block (lines false)))
        [ "[E2 metrics]"; "[E2 contention]"; "[E2 blame]" ]

(* Every experiment threads the config's profiler through its
   environments, E11's chaos cells included: its contention table has
   rows. *)
let test_e11_profiles () =
  match Experiments.find "E11" with
  | None -> Alcotest.fail "E11 missing"
  | Some e ->
      let cfg =
        { Scenario.default_config with threads = 2; ops_per_thread = 5;
          profile = true }
      in
      let r = e.Experiments.run cfg in
      let rows = Lfrc_obs.Profile.rows r.Lfrc_harness.Common.profile in
      checkb "profiled sites" true (rows <> []);
      (* Each closed span observes one sample into each of its site's
         three series, and nothing else writes them. *)
      let samples = r.Lfrc_harness.Common.metrics.Lfrc_obs.Metrics.samples in
      List.iter
        (fun (row : Lfrc_obs.Profile.row) ->
          let site = row.Lfrc_obs.Profile.r_site in
          if site <> "(unattributed)" then
            List.iter
              (fun h ->
                let n =
                  match List.assoc_opt h samples with
                  | Some xs -> Array.length xs
                  | None -> 0
                in
                checki (h ^ " holds one sample per call")
                  row.Lfrc_obs.Profile.r_calls n)
              [ site ^ ".retries"; site ^ ".steps"; "dcas.retries." ^ site ])
        rows

(* E5 opens a span named after its row around every op it drives, so no
   failed attempt falls to the "(unattributed)" site: not the substrate
   rows' raw DCAS-increments, not the locked deque's spin lock. *)
let test_e5_names_every_failure () =
  match Experiments.find "E5" with
  | None -> Alcotest.fail "E5 missing"
  | Some e ->
      let r =
        e.Experiments.run
          {
            Scenario.default_config with
            threads = 2;
            ops_per_thread = 30;
            iters = 100;
            profile = true;
            blame = true;
          }
      in
      let profile = r.Lfrc_harness.Common.profile
      and blame = r.Lfrc_harness.Common.blame in
      checkb "attempts failed" true (Lfrc_obs.Profile.total_wasted profile > 0);
      List.iter
        (fun (row : Lfrc_obs.Profile.row) ->
          if row.Lfrc_obs.Profile.r_site = "(unattributed)" then
            checki "unattributed failures" 0 row.Lfrc_obs.Profile.r_wasted)
        (Lfrc_obs.Profile.rows profile);
      List.iter
        (fun (b : Lfrc_obs.Blame.row) ->
          checkb
            (Printf.sprintf "%s -> %s names sites" b.Lfrc_obs.Blame.b_victim
               b.Lfrc_obs.Blame.b_culprit)
            false
            (List.mem "(unattributed)"
               [ b.Lfrc_obs.Blame.b_victim; b.Lfrc_obs.Blame.b_culprit ]))
        (Lfrc_obs.Blame.rows blame)

let () =
  Alcotest.run "harness"
    [
      ( "opmix",
        [
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "thread independent" `Quick test_stream_thread_independent;
          Alcotest.test_case "weights" `Quick test_stream_respects_weights;
          Alcotest.test_case "bad weights" `Quick test_mix_rejects_bad_weights;
          Alcotest.test_case "names" `Quick test_mix_names;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "sequential linearizable" `Quick
            test_scenario_sequential_linearizable;
          Alcotest.test_case "detects bad impl" `Quick test_scenario_detects_bad_impl;
          Alcotest.test_case "body and check" `Slow test_scenario_body_and_check;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry" `Quick test_registry_complete;
          Alcotest.test_case "E7 end to end" `Quick test_e7_runs_quickly;
          Alcotest.test_case "E2/E5 counts without metrics" `Quick
            test_counts_independent_of_metrics;
          Alcotest.test_case "E11 profiles" `Quick test_e11_profiles;
          Alcotest.test_case "csv prints only csv" `Quick
            test_csv_prints_only_csv;
          Alcotest.test_case "E2 rc-mode headlines" `Quick
            test_e2_rc_mode_headlines;
          Alcotest.test_case "E5 names every failure" `Quick
            test_e5_names_every_failure;
        ] );
    ]
