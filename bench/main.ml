(* Benchmark entry point.

   Two parts:

   1. The experiment harness (E1..E10): regenerates every table recorded in
      EXPERIMENTS.md — the reproduction's evaluation suite. Run with no
      arguments, or with experiment ids to select.

   2. A bechamel micro-benchmark pass over the core LFRC operations and
      the deque/stack/queue operations, giving allocation-aware per-op
      timings that complement E1's coarse loop timing. Enabled with
      the single argument "micro".

   The paper itself publishes no measured tables (see EXPERIMENTS.md);
   each E-table is this repository's quantitative evaluation of the
   paper's qualitative claims. *)

module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Env = Lfrc_core.Env
module Lfrc = Lfrc_core.Lfrc
module Json = Lfrc_util.Json

let node = Layout.make ~name:"bench-node" ~n_ptrs:2 ~n_vals:1

(* --- bechamel micro-suite --- *)

let make_lfrc_op_tests () =
  let heap = Heap.create ~name:"bench-lfrc" () in
  let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
  let cell_a = Heap.root heap ~name:"A" () in
  let cell_b = Heap.root heap ~name:"B" () in
  let a = Lfrc.alloc env node and b = Lfrc.alloc env node in
  Lfrc.store_alloc env ~dst:cell_a a;
  Lfrc.store_alloc env ~dst:cell_b b;
  let dest = ref Heap.null in
  [
    Bechamel.Test.make ~name:"lfrc-load"
      (Bechamel.Staged.stage (fun () -> Lfrc.load env ~src:cell_a ~dest));
    Bechamel.Test.make ~name:"lfrc-store"
      (Bechamel.Staged.stage (fun () -> Lfrc.store env ~dst:cell_a a));
    Bechamel.Test.make ~name:"lfrc-cas"
      (Bechamel.Staged.stage (fun () ->
           ignore (Lfrc.cas env cell_a ~old_ptr:a ~new_ptr:a)));
    Bechamel.Test.make ~name:"lfrc-dcas"
      (Bechamel.Staged.stage (fun () ->
           ignore (Lfrc.dcas env cell_a cell_b ~old0:a ~old1:b ~new0:a ~new1:b)));
    Bechamel.Test.make ~name:"lfrc-alloc-destroy"
      (Bechamel.Staged.stage (fun () ->
           let p = Lfrc.alloc env node in
           Lfrc.destroy env p));
  ]

let make_structure_tests () =
  let mk_deque (module D : Lfrc_structures.Deque_intf.DEQUE) name =
    let heap = Heap.create ~name () in
    let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
    let d = D.create env in
    let h = D.register d in
    (* steady state: keep a few elements so pops always succeed *)
    for i = 1 to 8 do
      D.push_right h i
    done;
    Bechamel.Test.make ~name:(name ^ "-push-pop")
      (Bechamel.Staged.stage (fun () ->
           D.push_right h 1;
           ignore (D.pop_left h)))
  in
  let module Fixed = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops) in
  let module Gc = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Gc_ops) in
  let mk_stack () =
    let heap = Heap.create ~name:"bench-stack" () in
    let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
    let module S = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops) in
    let s = S.create env in
    let h = S.register s in
    for i = 1 to 8 do
      S.push h i
    done;
    Bechamel.Test.make ~name:"treiber-lfrc-push-pop"
      (Bechamel.Staged.stage (fun () ->
           S.push h 1;
           ignore (S.pop h)))
  in
  let mk_queue () =
    let heap = Heap.create ~name:"bench-queue" () in
    let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
    let module Q = Lfrc_structures.Msqueue.Make (Lfrc_core.Lfrc_ops) in
    let q = Q.create env in
    let h = Q.register q in
    for i = 1 to 8 do
      Q.enqueue h i
    done;
    Bechamel.Test.make ~name:"msqueue-lfrc-enq-deq"
      (Bechamel.Staged.stage (fun () ->
           Q.enqueue h 1;
           ignore (Q.dequeue h)))
  in
  let mk_set () =
    let heap = Heap.create ~name:"bench-set" () in
    let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
    let module S = Lfrc_structures.Dlist_set.Make (Lfrc_core.Lfrc_ops) in
    let s = S.create env in
    let h = S.register s in
    for i = 1 to 64 do
      ignore (S.insert h (i * 2))
    done;
    let k = ref 1 in
    Bechamel.Test.make ~name:"dlist-set-ins-rem"
      (Bechamel.Staged.stage (fun () ->
           k := (!k mod 63) + 1;
           ignore (S.insert h ((!k * 2) + 1));
           ignore (S.remove h ((!k * 2) + 1))))
  in
  let mk_skiplist () =
    let heap = Heap.create ~name:"bench-skip" () in
    let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
    let module S = Lfrc_structures.Skiplist.Make (Lfrc_core.Lfrc_ops) in
    let s = S.create env in
    let h = S.register s in
    for i = 1 to 1024 do
      ignore (S.insert h (i * 2))
    done;
    let k = ref 1 in
    Bechamel.Test.make ~name:"skiplist-1k-contains"
      (Bechamel.Staged.stage (fun () ->
           k := (!k * 31 mod 2047) + 1;
           ignore (S.contains h !k)))
  in
  [
    mk_deque (module Fixed) "snark-lfrc";
    mk_deque (module Gc) "snark-gc";
    mk_deque (module Lfrc_structures.Locked_deque) "locked";
    mk_stack ();
    mk_queue ();
    mk_set ();
    mk_skiplist ();
  ]

let run_micro () =
  let open Bechamel in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let tests =
    Test.make_grouped ~name:"lfrc" ~fmt:"%s/%s"
      (make_lfrc_op_tests () @ make_structure_tests ())
  in
  let results = benchmark tests in
  let results = analyze results in
  print_endline "bechamel micro-benchmarks (ns/op, OLS on monotonic clock):";
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-28s %10.1f ns/op\n" name est
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    results

(* --- machine-readable pass: ops/sec per structure workload plus one
   timed run of every experiment, written as a single JSON file so CI and
   cross-PR comparisons can diff performance without parsing tables. --- *)

let run_json file =
  let module Clock = Lfrc_util.Clock in
  let module Metrics = Lfrc_obs.Metrics in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\n  \"workloads\": [";
  let workers = 4 and ops_per_worker = 2_000 and seed = 11 in
  (* Each workload runs in all three rc modes on the same seed: the eager
     entry keeps its historical name (and, because the eager path is
     untouched, its exact counters) for cross-PR comparison, and the
     deferred-rc / wait-free-rc entries carry a "+deferred-rc" /
     "+wait-free-rc" suffix so [--compare] treats each as its own
     workload family rather than drift on the eager one. *)
  let entries =
    List.concat_map
      (fun (name, workload) ->
        [ (name, Env.Eager, workload);
          ( name ^ "+deferred-rc",
            Env.Deferred_rc { epoch = Lfrc_harness.Scenario.deferred_rc_epoch },
            workload );
          ( name ^ "+wait-free-rc",
            Env.Wait_free { weight = Lfrc_harness.Scenario.wait_free_weight },
            workload );
        ])
      Lfrc_harness.Common.workloads
  in
  List.iteri
    (fun i (name, rc_mode, workload) ->
      (* Two passes over the same deterministic schedule: a profile-free
         pass supplies wall_ns/ops_per_sec (the profiler costs ~35% and
         would poison cross-PR comparison against profile-free
         baselines), then an instrumented pass supplies the profile
         section and the snapshot's histograms. The counters are
         identical between passes — recording happens outside the
         simulated atomics, so it never perturbs the schedule. *)
      let run ~profile =
        let metrics = Metrics.create () in
        let prof =
          if profile then Lfrc_obs.Profile.create ~metrics ()
          else Lfrc_obs.Profile.disabled
        in
        (* Blame rides the instrumented pass only: it writes nothing to
           the metrics registry and takes no scheduler steps, so the
           counters stay byte-identical to the timing pass. *)
        let blame =
          if profile then Lfrc_obs.Blame.create () else Lfrc_obs.Blame.disabled
        in
        let heap = Heap.create ~name:("bench-json-" ^ name) () in
        let env =
          Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ~rc_mode
            ~metrics ~profile:prof ~blame heap
        in
        let (), wall_ns =
          Clock.time_ns (fun () ->
              ignore
                (Lfrc_sched.Sched.run ~max_steps:400_000_000
                   (Lfrc_sched.Strategy.Random seed)
                   (fun () -> workload ~workers ~ops_per_worker ~seed env)))
        in
        (wall_ns, metrics, prof, blame)
      in
      let wall_ns, _, _, _ = run ~profile:false in
      let _, metrics, profile, blame = run ~profile:true in
      let ops = workers * ops_per_worker in
      let ops_per_sec = float_of_int ops /. (float_of_int wall_ns /. 1e9) in
      Buffer.add_string buf
        (Printf.sprintf
           "%s\n    {\"structure\": \"%s\", \"workers\": %d, \"ops\": %d, \
            \"wall_ns\": %d, \"ops_per_sec\": %.1f, \"profile\": %s, \
            \"blame\": %s, \"metrics\": %s}"
           (if i > 0 then "," else "")
           (Json.escape name) workers ops wall_ns ops_per_sec
           (Lfrc_obs.Profile.to_json profile)
           (if Lfrc_obs.Blame.enabled blame then Lfrc_obs.Blame.to_json blame
            else "null")
           (Metrics.to_json (Metrics.snapshot metrics)));
      Printf.printf "workload %-22s %8.0f ops/sec (simulated, %d ops)\n%!"
        name ops_per_sec ops)
    entries;
  (* Crash-recovery counters: replay E11's crash and multi-crash cells
     with adoption on, in all three rc modes, aggregating into one
     synthetic workload entry. The adopt_* counters are deterministic
     under the simulated scheduler, so [--compare] gates recovery-
     behavior drift exactly like any structural counter. *)
  let () =
    let module E11 = Lfrc_harness.E11_chaos in
    let metrics = Metrics.create () in
    let faults =
      List.filter
        (fun f -> List.mem (E11.fault_name f) [ "crash"; "multi-crash" ])
        E11.fault_kinds
    in
    let runs = ref 0 in
    let (), wall_ns =
      Clock.time_ns (fun () ->
          List.iter
            (fun structure ->
              List.iter
                (fun fault ->
                  List.iter
                    (fun seed ->
                      List.iter
                        (fun rc_mode ->
                          incr runs;
                          ignore
                            (E11.run_one ~rc_mode ~recover:true ~metrics
                               ~structure ~fault ~seed ()))
                        [
                          Env.Eager;
                          Env.Deferred_rc
                            { epoch = Lfrc_harness.Scenario.deferred_rc_epoch };
                          Env.Wait_free
                            { weight = Lfrc_harness.Scenario.wait_free_weight };
                        ])
                    [ 1; 2; 3 ])
                faults)
            E11.structures)
    in
    let runs = !runs in
    let per_sec = float_of_int runs /. (float_of_int wall_ns /. 1e9) in
    Buffer.add_string buf
      (Printf.sprintf
         ",\n    {\"structure\": \"chaos-recovery\", \"workers\": 3, \
          \"ops\": %d, \"wall_ns\": %d, \"ops_per_sec\": %.1f, \
          \"profile\": null, \"metrics\": %s}"
         runs wall_ns per_sec
         (Metrics.to_json (Metrics.snapshot metrics)));
    Printf.printf "workload %-22s %8.0f runs/sec (recovered chaos, %d runs)\n%!"
      "chaos-recovery" per_sec runs
  in
  Buffer.add_string buf "\n  ],\n  \"experiments\": [";
  let e2_eager = ref None in
  List.iteri
    (fun i (e : Lfrc_harness.Experiments.experiment) ->
      let result, wall_ns =
        Clock.time_ns (fun () ->
            e.Lfrc_harness.Experiments.run
              Lfrc_harness.Scenario.default_config)
      in
      if e.Lfrc_harness.Experiments.id = "E2" then
        e2_eager := Some result.Lfrc_harness.Common.metrics;
      Buffer.add_string buf
        (Printf.sprintf
           "%s\n    {\"id\": \"%s\", \"title\": \"%s\", \"wall_ms\": %.1f, \
            \"metrics\": %s}"
           (if i > 0 then "," else "")
           (Json.escape e.Lfrc_harness.Experiments.id)
           (Json.escape e.Lfrc_harness.Experiments.title)
           (float_of_int wall_ns /. 1e6)
           (Metrics.to_json result.Lfrc_harness.Common.metrics));
      Printf.printf "experiment %-4s %8.1f ms  (%s)\n%!"
        e.Lfrc_harness.Experiments.id
        (float_of_int wall_ns /. 1e6)
        e.Lfrc_harness.Experiments.title)
    Lfrc_harness.Experiments.all;
  Buffer.add_string buf "\n  ],\n  \"deferred_rc\": ";
  (* The headline coalescing number: re-run E2 (same seeds, same op
     streams) with deferred-rc on and put the single-word CAS traffic —
     the count updates — next to the eager run recorded above. The
     schedule is deterministic per mode, so the delta is coalescing, not
     noise. *)
  (match !e2_eager with
  | None -> Buffer.add_string buf "null"
  | Some eager ->
      let deferred =
        (List.find
           (fun (e : Lfrc_harness.Experiments.experiment) ->
             e.Lfrc_harness.Experiments.id = "E2")
           Lfrc_harness.Experiments.all)
          .Lfrc_harness.Experiments.run
          { Lfrc_harness.Scenario.default_config with deferred_rc = true }
      in
      let attempts snap = Metrics.counter_value snap "dcas.cas_attempts" in
      let e = attempts eager
      and d = attempts deferred.Lfrc_harness.Common.metrics in
      let reduction =
        if e > 0 then 100.0 *. float_of_int (e - d) /. float_of_int e else 0.0
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"experiment\": \"E2\", \"counter\": \"dcas.cas_attempts\", \
            \"eager\": %d, \"deferred\": %d, \"reduction_pct\": %.1f}"
           e d reduction);
      Printf.printf
        "deferred-rc: E2 dcas.cas_attempts %d eager -> %d deferred \
         (%.1f%% fewer)\n%!"
        e d reduction);
  Buffer.add_string buf ",\n  \"wait_free_rc\": ";
  (* The wait-free headline: the same E2 re-run with weighted counts.
     Two numbers matter — the count path never retries (rc_retry must be
     exactly 0: copy/destroy are single fetch-adds), and the CAS traffic
     lands below even deferred-rc because borrow/share handoffs touch no
     shared count word at all. [dcas.rmw] is reported so the fetch-add
     volume that replaced the CAS loops is visible next to the drop. *)
  (match !e2_eager with
  | None -> Buffer.add_string buf "null"
  | Some eager ->
      let wait_free =
        (List.find
           (fun (e : Lfrc_harness.Experiments.experiment) ->
             e.Lfrc_harness.Experiments.id = "E2")
           Lfrc_harness.Experiments.all)
          .Lfrc_harness.Experiments.run
          { Lfrc_harness.Scenario.default_config with wait_free_rc = true }
      in
      let counter snap key = Metrics.counter_value snap key in
      let wf = wait_free.Lfrc_harness.Common.metrics in
      let e = counter eager "dcas.cas_attempts"
      and w = counter wf "dcas.cas_attempts"
      and rc_retry = counter wf "lfrc.rc_retry"
      and rmw = counter wf "dcas.rmw" in
      let reduction =
        if e > 0 then 100.0 *. float_of_int (e - w) /. float_of_int e else 0.0
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"experiment\": \"E2\", \"counter\": \"dcas.cas_attempts\", \
            \"eager\": %d, \"wait_free\": %d, \"reduction_pct\": %.1f, \
            \"rc_retry\": %d, \"rmw\": %d}"
           e w reduction rc_retry rmw);
      Printf.printf
        "wait-free-rc: E2 dcas.cas_attempts %d eager -> %d wait-free \
         (%.1f%% fewer), rc_retry %d, fetch-adds %d\n%!"
        e w reduction rc_retry rmw);
  Buffer.add_string buf "\n}\n";
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf "wrote %s\n" file

(* --- regression comparison: diff a fresh --json run against a committed
   baseline and gate on ops/sec regressions, counter drift, and histogram
   observation-count drift. The policy lives in
   {!Lfrc_harness.Bench_compare} (where it is unit-tested against
   hand-edited baselines); this wrapper only does file I/O, rendering,
   and exit codes. [--report-only] downgrades every failure to a report;
   [--explain] attributes each regression to the counters, profile
   sites, and blame pairs that moved. --- *)

let compare_runs ~threshold ~report_only ~explain ~current ~baseline =
  let module J = Lfrc_util.Json in
  let module C = Lfrc_harness.Bench_compare in
  match (J.parse_file baseline, J.parse_file current) with
  | Error e, _ ->
      Printf.eprintf "cannot read baseline %s: %s\n" baseline e;
      2
  | _, Error e ->
      Printf.eprintf "cannot read current run %s: %s\n" current e;
      2
  | Ok base_doc, Ok cur_doc ->
      let v = C.diff ~threshold ~current:cur_doc ~baseline:base_doc in
      print_string
        (C.render ~threshold ~current_file:current ~baseline_file:baseline v);
      if explain then
        print_string (C.explain ~current:cur_doc ~baseline:base_doc v);
      if C.ok v then 0
      else if report_only then (
        Printf.printf "report-only mode: not failing the run\n";
        0)
      else 1

let run_compare rest =
  let baseline = ref None
  and threshold = ref 30.0
  and report_only = ref false
  and explain = ref false
  and current = ref None in
  let usage () =
    prerr_endline
      "usage: bench --compare BASELINE.json [--current FILE] [--threshold \
       PCT] [--report-only] [--explain]";
    exit 2
  in
  let rec go = function
    | [] -> ()
    | "--threshold" :: v :: tl -> (
        match float_of_string_opt v with
        | Some f ->
            threshold := f;
            go tl
        | None -> usage ())
    | "--report-only" :: tl ->
        report_only := true;
        go tl
    | "--explain" :: tl ->
        explain := true;
        go tl
    | "--current" :: f :: tl ->
        current := Some f;
        go tl
    | f :: tl when !baseline = None && String.length f > 0 && f.[0] <> '-' ->
        baseline := Some f;
        go tl
    | _ -> usage ()
  in
  go rest;
  match !baseline with
  | None -> usage ()
  | Some baseline ->
      (* Without --current the comparison is against a fresh run, written
         to a temporary file so no committed baseline is overwritten. *)
      let current =
        match !current with
        | Some f ->
            if not (Sys.file_exists f) then run_json f;
            f
        | None ->
            let f = Filename.temp_file "bench-current" ".json" in
            run_json f;
            f
      in
      exit
        (compare_runs ~threshold:!threshold ~report_only:!report_only
           ~explain:!explain ~current ~baseline)

(* --- entry point --- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "micro" ] -> run_micro ()
  | [ "--json" ] -> run_json "BENCH_pr10.json"
  | [ "--json"; file ] -> run_json file
  | "--compare" :: rest -> run_compare rest
  | [] ->
      Lfrc_harness.Experiments.run_all ();
      run_micro ()
  | ids ->
      if not (Lfrc_harness.Experiments.run_ids ids) then exit 1
