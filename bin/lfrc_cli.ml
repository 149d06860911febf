(* Command-line front end: run experiments (EXPERIMENTS.md tables), quick
   model checks, linearizability scenario runs, fault-injection campaigns,
   and observability dumps (metrics JSON, Chrome-trace timelines). *)

open Cmdliner
module Json = Lfrc_util.Json

(* --- the shared experiment configuration as a term --- *)

(* The count-delivery mode the two flags select, shared by config_term
   and every workload command. This is the one place where
   --wait-free-rc wins when both flags are given. *)
let rc_mode_term =
  let deferred_rc =
    Arg.(
      value & flag
      & info [ "deferred-rc" ]
          ~doc:
            "Run LFRC environments in deferred-rc coalescing mode: count \
             adjustments park in per-thread buffers and are applied as \
             netted CASes at bounded epochs (and at quiescent points).")
  in
  let wait_free_rc =
    Arg.(
      value & flag
      & info [ "wait-free-rc" ]
          ~doc:
            "Run LFRC environments in wait-free weighted-rc mode: split \
             reference counts adjusted by single fetch-adds, weight \
             borrowing on pointer handoff, DCAS only as the \
             weight-exhaustion fallback. Wins over $(b,--deferred-rc).")
  in
  let select deferred_rc wait_free_rc =
    if wait_free_rc then
      Lfrc_core.Env.Wait_free
        { weight = Lfrc_harness.Scenario.wait_free_weight }
    else if deferred_rc then
      Lfrc_core.Env.Deferred_rc
        { epoch = Lfrc_harness.Scenario.deferred_rc_epoch }
    else Lfrc_core.Env.Eager
  in
  Term.(const select $ deferred_rc $ wait_free_rc)

(* Header suffix naming the selected mode in the workload commands. *)
let rc_mode_suffix = function
  | Lfrc_core.Env.Eager -> ""
  | Lfrc_core.Env.Deferred_rc _ -> ", deferred-rc"
  | Lfrc_core.Env.Wait_free _ -> ", wait-free-rc"

let config_term =
  let d = Lfrc_harness.Scenario.default_config in
  let threads =
    Arg.(
      value
      & opt int d.Lfrc_harness.Scenario.threads
      & info [ "threads" ] ~docv:"N"
          ~doc:"Worker-thread ceiling for multi-threaded experiments.")
  in
  let ops =
    Arg.(
      value
      & opt int d.Lfrc_harness.Scenario.ops_per_thread
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker thread.")
  in
  let iters =
    Arg.(
      value
      & opt int d.Lfrc_harness.Scenario.iters
      & info [ "iters" ] ~docv:"N"
          ~doc:"Single-threaded timing-loop iterations.")
  in
  let seed =
    Arg.(
      value
      & opt int d.Lfrc_harness.Scenario.seed
      & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed for schedules and op mixes.")
  in
  let no_metrics =
    Arg.(
      value & flag
      & info [ "no-metrics" ]
          ~doc:"Disable metrics collection (suppresses the JSON blocks).")
  in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"SPEC"
          ~doc:
            "Fault-plan spec (Lfrc_faults.Fault_plan syntax) overriding \
             E11's built-in fault matrix.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attribute DCAS/CAS retries and op latencies to labeled call \
             sites and print a per-experiment contention table.")
  in
  let blame =
    Arg.(
      value & flag
      & info [ "blame" ]
          ~doc:
            "Attribute every failed CAS/DCAS/rc-retry to the thread and \
             call site whose write invalidated it, and print a ranked \
             victim->culprit interference report per experiment.")
  in
  let build threads ops iters seed no_metrics fault profile blame rc_mode =
    match
      Option.map
        (fun s ->
          match Lfrc_faults.Fault_plan.spec_of_string s with
          | Some spec -> Ok spec
          | None -> Error s)
        fault
    with
    | Some (Error s) -> `Error (false, Printf.sprintf "bad fault spec %S" s)
    | fault ->
        let fault =
          match fault with Some (Ok spec) -> Some spec | _ -> None
        in
        `Ok
          {
            Lfrc_harness.Scenario.threads;
            ops_per_thread = ops;
            iters;
            seed;
            fault;
            metrics = not no_metrics;
            trace_capacity = 0;
            profile;
            blame;
            rc_mode;
          }
  in
  Term.(
    ret
      (const build $ threads $ ops $ iters $ seed $ no_metrics $ fault
     $ profile $ blame $ rc_mode_term))

let experiments_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (E1..E11); all when omitted.")
  in
  let csv =
    Arg.(
      value & flag
      & info [ "csv" ]
          ~doc:
            "Emit each table as comma-separated values and nothing else: \
             no notes and no metrics, contention or blame block.")
  in
  let run config csv ids =
    let ids =
      if ids = [] then
        List.map
          (fun e -> e.Lfrc_harness.Experiments.id)
          Lfrc_harness.Experiments.all
      else ids
    in
    if not (Lfrc_harness.Experiments.run_ids ~config ~csv ids) then exit 1
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the EXPERIMENTS.md tables")
    Term.(const run $ config_term $ csv $ ids)

(* --- workload plumbing shared by stats and trace --- *)

let structure_arg =
  let names = List.map (fun (n, w) -> (n, (n, w))) Lfrc_harness.Common.workloads in
  Arg.(
    value
    & opt (enum names) (List.hd names |> snd)
    & info [ "structure" ]
        ~doc:(Printf.sprintf "Structure to drive: %s."
                (String.concat ", " (List.map fst names))))

let stats_cmd =
  let workers =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N" ~doc:"Worker threads.")
  in
  let ops =
    Arg.(value & opt int 2_000 & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule and op-mix seed.")
  in
  let run (name, workload) workers ops seed rc_mode =
    let metrics = Lfrc_obs.Metrics.create () in
    Lfrc_harness.Common.run_workload ~rc_mode ~metrics ~workers
      ~ops_per_worker:ops ~seed workload;
    let tier =
      match Lfrc_structures.Catalog.find name with
      | Some e ->
          Printf.sprintf " [%s-tier]"
            (Lfrc_structures.Catalog.tier_name
               (Lfrc_structures.Catalog.tier e))
      | None -> ""
    in
    Printf.printf "# %s%s: %d threads x %d ops, seed %d%s\n%s\n" name tier
      workers ops seed (rc_mode_suffix rc_mode)
      (Json.to_string
         (Lfrc_obs.Metrics.to_json (Lfrc_obs.Metrics.snapshot metrics)))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a structure workload under the simulator and print its \
          metrics snapshot as JSON (DCAS traffic, LFRC op/retry counts, \
          heap alloc/free balance)")
    Term.(const run $ structure_arg $ workers $ ops $ seed $ rc_mode_term)

let trace_cmd =
  let workers =
    Arg.(value & opt int 3 & info [ "threads" ] ~docv:"N" ~doc:"Worker threads.")
  in
  let ops =
    Arg.(value & opt int 50 & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule and op-mix seed.")
  in
  let capacity =
    Arg.(
      value & opt int 65_536
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Event-ring capacity; oldest events drop beyond it.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("text", `Text) ]) `Chrome
      & info [ "format" ]
          ~doc:"Output format: $(b,chrome) (chrome://tracing JSON) or $(b,text) (step-numbered timeline).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let run (name, workload) workers ops seed capacity format output rc_mode =
    let tracer = Lfrc_obs.Tracer.create ~capacity in
    (* Saved traces outlive the invocation that produced them: stamp the
       run's provenance into the tracer so the chrome header / timeline
       footer says what made it. *)
    Lfrc_obs.Tracer.set_meta tracer
      [
        ("structure", name);
        ( "tier",
          match Lfrc_structures.Catalog.find name with
          | Some e ->
              Lfrc_structures.Catalog.tier_name
                (Lfrc_structures.Catalog.tier e)
          | None -> "?" );
        ("workers", string_of_int workers);
        ("ops_per_worker", string_of_int ops);
        ("seed", string_of_int seed);
        ("rc_mode", Lfrc_harness.Scenario.rc_mode_label rc_mode);
      ];
    Lfrc_harness.Common.run_workload ~rc_mode ~tracer ~workers
      ~ops_per_worker:ops ~seed workload;
    let rendered =
      match format with
      | `Chrome -> Json.to_string (Lfrc_obs.Tracer.to_chrome_json tracer)
      | `Text -> Lfrc_obs.Tracer.to_timeline tracer
    in
    match output with
    | None -> print_string rendered
    | Some file ->
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc rendered);
        Printf.printf "%d events (%d recorded, %d dropped) -> %s\n"
          (List.length (Lfrc_obs.Tracer.events tracer))
          (Lfrc_obs.Tracer.recorded tracer)
          (Lfrc_obs.Tracer.dropped tracer)
          file
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a structure workload with the event tracer on and emit the \
          timeline (chrome://tracing JSON or text)")
    Term.(
      const run $ structure_arg $ workers $ ops $ seed $ capacity $ format
      $ output $ rc_mode_term)

let profile_cmd =
  let workers =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N" ~doc:"Worker threads.")
  in
  let ops =
    Arg.(value & opt int 2_000 & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule and op-mix seed.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the per-site records (plus the metrics snapshot with \
                its retry/latency histograms) as JSON.")
  in
  let run (name, workload) workers ops seed json rc_mode =
    let metrics = Lfrc_obs.Metrics.create () in
    let profile = Lfrc_obs.Profile.create ~metrics () in
    Lfrc_harness.Common.run_workload ~rc_mode ~metrics ~profile ~workers
      ~ops_per_worker:ops ~seed workload;
    if json then
      print_endline
        (Json.to_string
           (Json.Object
              [
                ("workload", Json.String name);
                ("profile", Lfrc_obs.Profile.to_json profile);
                ( "metrics",
                  Lfrc_obs.Metrics.to_json (Lfrc_obs.Metrics.snapshot metrics)
                );
              ]))
    else begin
      Printf.printf "# %s: %d threads x %d ops, seed %d\n" name workers ops
        seed;
      print_string (Lfrc_obs.Profile.table profile)
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a structure workload with the call-site contention profiler \
          on and print the per-site table (calls, retries, failed DCAS \
          attempts, scheduler-step latency), sorted by wasted attempts")
    Term.(
      const run $ structure_arg $ workers $ ops $ seed $ json $ rc_mode_term)

let blame_cmd =
  let workers =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N" ~doc:"Worker threads.")
  in
  let ops =
    Arg.(value & opt int 2_000 & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule and op-mix seed.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit totals, ranked pairs, and retry-chain stats as JSON \
                (byte-deterministic for a given seed).")
  in
  let matrix =
    Arg.(
      value & flag
      & info [ "matrix" ]
          ~doc:"Print the victim x culprit wasted-attempt matrix instead \
                of the ranked report.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Pairs to rank in the report.")
  in
  let run (name, workload) workers ops seed json matrix top rc_mode =
    let metrics = Lfrc_obs.Metrics.create () in
    let blame = Lfrc_obs.Blame.create () in
    Lfrc_harness.Common.run_workload ~rc_mode ~metrics ~blame ~workers
      ~ops_per_worker:ops ~seed workload;
    if json then print_endline (Json.to_string (Lfrc_obs.Blame.to_json blame))
    else if matrix then print_string (Lfrc_obs.Blame.matrix blame)
    else begin
      Printf.printf "# %s: %d threads x %d ops, seed %d%s\n" name workers ops
        seed (rc_mode_suffix rc_mode);
      print_string (Lfrc_obs.Blame.report ~top blame)
    end
  in
  Cmd.v
    (Cmd.info "blame"
       ~doc:
         "Run a structure workload with contention blame attribution on: \
          every failed CAS/DCAS/rc-retry is charged to the thread and call \
          site whose write invalidated it (exact under the deterministic \
          scheduler). Prints the ranked victim->culprit report, the \
          interference matrix ($(b,--matrix)), or machine-readable JSON \
          ($(b,--json)).")
    Term.(
      const run $ structure_arg $ workers $ ops $ seed $ json $ matrix $ top
      $ rc_mode_term)

let forensics_cmd =
  let workers =
    Arg.(value & opt int 3 & info [ "threads" ] ~docv:"N" ~doc:"Worker threads.")
  in
  let ops =
    Arg.(value & opt int 25 & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule and fault-plan seed.")
  in
  let ring =
    Arg.(
      value & opt int 64
      & info [ "ring" ] ~docv:"N"
          ~doc:"Lifecycle events retained per object (older ones drop).")
  in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"SPEC"
          ~doc:
            "Fault-plan spec (Lfrc_faults.Fault_plan syntax) to inject; \
             $(b,--leaks) defaults to a thread-crash plan when omitted.")
  in
  let addr =
    Arg.(
      value
      & opt (some int) None
      & info [ "addr" ] ~docv:"ADDR"
          ~doc:"Print the full lifecycle timeline of this object id.")
  in
  let leaks =
    Arg.(
      value & flag
      & info [ "leaks" ]
          ~doc:
            "Join the post-mortem audit's leaked objects against the \
             lineage: name each leaked address and the operation that \
             dropped its last reference.")
  in
  let top =
    Arg.(
      value & opt int 0
      & info [ "top" ] ~docv:"N"
          ~doc:"Print the N busiest objects (most lifecycle events).")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write a chrome://tracing JSON export of the recorded \
             lifecycles (one track per object) to FILE.")
  in
  let run (name, workload) workers ops seed ring fault addr leaks top chrome
      rc_mode =
    let parsed =
      Option.map
        (fun s ->
          match Lfrc_faults.Fault_plan.spec_of_string s with
          | Some spec -> Ok spec
          | None -> Error s)
        fault
    in
    match parsed with
    | Some (Error s) -> `Error (false, Printf.sprintf "bad fault spec %S" s)
    | None | Some (Ok _) ->
        let spec =
          match parsed with
          | Some (Ok spec) -> spec
          | _ ->
              if leaks then
                (* A worker crash mid-operation is the canonical leak
                   generator: the dead thread's counted references are
                   never dropped. *)
                {
                  Lfrc_faults.Fault_plan.default with
                  seed;
                  crashes = [ (1 + (seed mod workers), 15) ];
                }
              else { Lfrc_faults.Fault_plan.default with seed }
        in
        let lineage = Lfrc_obs.Lineage.create ~ring () in
        let r =
          Lfrc_faults.Chaos.run ~lineage ~rc_mode ~max_steps:400_000
            ~strategy:(Lfrc_sched.Strategy.Random seed) ~spec
            (fun env ->
              match workload ~workers ~ops_per_worker:ops ~seed env with
              | () -> ()
              | exception Lfrc_simmem.Heap.Simulated_oom -> ())
        in
        Format.printf "# %s: %d threads x %d ops, %a@\n%s@\n" name workers ops
          Lfrc_faults.Chaos.pp_status r.Lfrc_faults.Chaos.status
          (Lfrc_obs.Lineage.summary lineage);
        if leaks then begin
          match r.Lfrc_faults.Chaos.audit with
          | None ->
              print_string
                "run did not complete; no audit to join against\n"
          | Some a ->
              print_string
                (Lfrc_obs.Lineage.leak_report lineage
                   ~addrs:a.Lfrc_faults.Audit.leaked_ids);
              let over =
                List.filter_map
                  (function
                    | Lfrc_faults.Audit.Rc_below_refs { id; _ } -> Some id
                    | _ -> None)
                  a.Lfrc_faults.Audit.findings
              in
              if over <> [] then
                print_string
                  (Lfrc_obs.Lineage.double_free_report lineage ~addrs:over)
        end;
        Option.iter
          (fun a -> print_string (Lfrc_obs.Lineage.timeline lineage ~addr:a))
          addr;
        let top =
          if top = 0 && addr = None && not leaks then 5 else top
        in
        if top > 0 then begin
          Printf.printf "busiest objects:\n";
          List.iter
            (fun (a, n) ->
              let tail =
                match Lfrc_obs.Lineage.last_event lineage ~addr:a with
                | Some ev ->
                    Format.asprintf "last: %a" Lfrc_obs.Lineage.pp_event ev
                | None -> ""
              in
              Printf.printf "  addr %-6d %5d events   %s\n" a n tail)
            (Lfrc_obs.Lineage.top lineage ~n:top)
        end;
        Option.iter
          (fun file ->
            Out_channel.with_open_text file (fun oc ->
                Out_channel.output_string oc
                  (Json.to_string (Lfrc_obs.Lineage.to_chrome_json lineage)));
            Printf.printf "lifecycle trace -> %s\n" file)
          chrome;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:
         "Run a structure workload with the per-object lifecycle recorder \
          on and render forensic reports: per-address timelines, the \
          busiest objects, chrome://tracing lifecycle export, and (with \
          $(b,--leaks)) the audit-joined report naming the operation that \
          dropped each leaked object's last reference")
    Term.(
      ret
        (const run $ structure_arg $ workers $ ops $ seed $ ring $ fault
       $ addr $ leaks $ top $ chrome $ rc_mode_term))

let check_cmd =
  let variant =
    Arg.(
      value
      & opt (enum [ ("published", `Published); ("fixed", `Fixed) ]) `Fixed
      & info [ "variant" ] ~doc:"Snark variant to check.")
  in
  let schedules =
    Arg.(value & opt int 20_000 & info [ "schedules" ] ~doc:"Randomized schedules per scenario.")
  in
  let run variant schedules =
    let dq : (module Lfrc_structures.Deque_intf.DEQUE) =
      match variant with
      | `Published ->
          (module Lfrc_structures.Snark.Make (Lfrc_core.Lfrc_ops))
      | `Fixed ->
          (module Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops))
    in
    let scenarios =
      Lfrc_harness.Scenario.
        [
          ("popR+popL+pushR on [1;2]", [ 1; 2 ],
           [ [ Pop_right ]; [ Pop_left ]; [ Push_right 3 ] ]);
          ("popR+popL+pushL on [1]", [ 1 ],
           [ [ Pop_right ]; [ Pop_left ]; [ Push_left 3 ] ]);
          ("2popR+popL+2pushR on [1]", [ 1 ],
           [ [ Pop_right; Pop_right ]; [ Pop_left ];
             [ Push_right 3; Push_right 4 ] ]);
        ]
    in
    let failed = ref false in
    List.iter
      (fun (name, preload, threads) ->
        let bad = ref 0 in
        for seed = 0 to schedules - 1 do
          let o =
            Lfrc_harness.Scenario.run dq ~preload ~threads
              (Lfrc_sched.Strategy.Random seed)
          in
          if not o.Lfrc_harness.Scenario.ok then incr bad
        done;
        Printf.printf "%-28s %d/%d schedules linearizable%s\n%!" name
          (schedules - !bad) schedules
          (if !bad > 0 then "  <-- VIOLATIONS" else "");
        if !bad > 0 then failed := true)
      scenarios;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Randomized linearizability check of a Snark variant")
    Term.(const run $ variant $ schedules)

let chaos_cmd =
  let module E11 = Lfrc_harness.E11_chaos in
  let structure =
    let names = List.map (fun s -> (E11.structure_name s, s)) E11.structures in
    Arg.(
      value
      & opt (some (enum names)) None
      & info [ "structure" ] ~doc:"Structure to torture; all when omitted.")
  in
  let fault =
    let names = List.map (fun f -> (E11.fault_name f, f)) E11.fault_kinds in
    Arg.(
      value
      & opt (some (enum names)) None
      & info [ "fault" ] ~doc:"Fault kind to inject; all when omitted.")
  in
  let seeds =
    Arg.(value & opt int 3 & info [ "seeds" ] ~doc:"Seeds per cell (1..N).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every run's report, not just failures.")
  in
  let recover =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Run the crash-recovery adoption pass after each run and audit \
             strictly: crashed threads' orphaned references are adopted \
             and the run fails on $(i,any) remaining leak, not just an \
             unaccounted one.")
  in
  let run structure fault seeds verbose recover rc_mode =
    let structures =
      match structure with Some s -> [ s ] | None -> E11.structures
    in
    let faults = match fault with Some f -> [ f ] | None -> E11.fault_kinds in
    let failed = ref false in
    List.iter
      (fun s ->
        List.iter
          (fun f ->
            for seed = 1 to seeds do
              let r =
                E11.run_one ~rc_mode ~recover ~structure:s ~fault:f ~seed ()
              in
              let bad = not (Lfrc_faults.Chaos.ok r) in
              if bad then failed := true;
              if bad || verbose then
                Format.printf "[%s/%s seed=%d] %s@\n%a@.@."
                  (E11.structure_name s) (E11.fault_name f) seed
                  (if bad then "FAIL" else "ok")
                  Lfrc_faults.Chaos.pp r
              else
                Printf.printf "[%s/%s seed=%d] ok\n%!" (E11.structure_name s)
                  (E11.fault_name f) seed
            done)
          faults)
        structures;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fault-injection runs (spurious CAS/DCAS, OOM, crashes) with post-mortem heap audit")
    Term.(
      const run $ structure $ fault $ seeds $ verbose $ recover $ rc_mode_term)

let analyze_cmd =
  let module Checker = Lfrc_analysis.Checker in
  let module Report = Lfrc_analysis.Report in
  let structure =
    Arg.(
      value
      & opt (some string) None
      & info [ "structure" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Analyze only this structure (one of: %s)."
               (String.concat ", " (Lfrc_structures.Catalog.names ()))))
  in
  let tier =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("cas", Lfrc_structures.Catalog.Cas);
                  ("dcas", Lfrc_structures.Catalog.Dcas);
                ]))
          None
      & info [ "tier" ] ~docv:"TIER"
          ~doc:
            "Analyze only structures of this primitive tier (cas = \
             single-word CAS only, dcas = needs double-word CAS). The \
             claimed tier is also what each structure's paths are held \
             to: a cas-tier structure recording a DCAS is a violation.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let max_paths =
    Arg.(
      value
      & opt int Checker.default_limits.Checker.max_paths
      & info [ "max-paths" ] ~docv:"N"
          ~doc:"Explored control-flow paths per action before giving up.")
  in
  let max_decisions =
    Arg.(
      value
      & opt int Checker.default_limits.Checker.max_decisions
      & info [ "max-decisions" ] ~docv:"N"
          ~doc:"Oracle decisions per path before the path is cut off.")
  in
  let run structure tier json max_paths max_decisions =
    let limits = { Checker.max_paths; max_decisions } in
    let report =
      match (structure, tier) with
      | None, _ -> Ok (Checker.analyze_all ~limits ?tier ())
      | Some name, None -> Checker.analyze_structure ~limits name
      | Some name, Some t -> (
          match Lfrc_structures.Catalog.find name with
          | Some e when Lfrc_structures.Catalog.tier e <> t ->
              Error
                (Printf.sprintf "structure %S is %s-tier, not %s-tier" name
                   (Lfrc_structures.Catalog.tier_name
                      (Lfrc_structures.Catalog.tier e))
                   (Lfrc_structures.Catalog.tier_name t))
          | _ -> Checker.analyze_structure ~limits name)
    in
    match report with
    | Error msg -> `Error (false, msg)
    | Ok report ->
        if json then print_endline (Json.to_string (Report.to_json report))
        else print_string (Report.to_string report);
        if Report.errors report > 0 then exit 1 else `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically check the shipped structures against the LFRC pointer \
          discipline (Table 1): enumerate each operation's control-flow \
          paths symbolically and verify every local pointer is retired, \
          no retired local is reused, and no raw pointer outlives its \
          counted reference. Exits 1 on any violation.")
    Term.(
      ret (const run $ structure $ tier $ json $ max_paths $ max_decisions))

let sanitize_cmd =
  let module San = Lfrc_harness.Sanitize_run in
  let module Shadow = Lfrc_sanitize.Shadow in
  let structure =
    Arg.(
      value
      & opt (some string) None
      & info [ "structure" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Sanitize only this structure (one of: %s)."
               (String.concat ", " (San.structure_names ()))))
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let fixtures_flag =
    Arg.(
      value & flag
      & info [ "fixtures" ]
          ~doc:
            "Run the seeded-bug fixtures instead of the catalog: the gate \
             inverts, succeeding only when every fixture's finding class \
             is detected with a witness.")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Widen the schedule matrix (the nightly configuration; also \
             enabled by LFRC_SAN_FULL=1).")
  in
  let workers =
    Arg.(
      value & opt int 3
      & info [ "workers" ] ~docv:"N" ~doc:"Worker threads per run.")
  in
  let ops =
    Arg.(
      value & opt int 40
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker per run.")
  in
  let json_outcome (o : San.outcome) =
    let t = o.San.o_totals in
    let witness (w : San.witness) =
      let f = w.San.w_finding in
      Json.Object
        [
          ("kind", Json.String (Shadow.kind_name f.Shadow.f_kind));
          ("slot", Json.String f.Shadow.f_slot);
          ("addr", Json.Int f.Shadow.f_addr);
          ("gen", Json.Int f.Shadow.f_gen);
          ("count", Json.Int f.Shadow.f_count);
          ("replay", Json.String w.San.w_schedule);
          ("message", Json.String f.Shadow.f_message);
          ("lineage", Json.String w.San.w_lineage);
        ]
    in
    Json.Object
      [
        ("structure", Json.String o.San.o_structure);
        ( "schedules",
          Json.Array (List.map (fun s -> Json.String s) o.San.o_schedules) );
        ("checks", Json.Int t.Shadow.checks);
        ("races", Json.Int t.Shadow.races);
        ("uaf", Json.Int t.Shadow.uaf);
        ("uar", Json.Int t.Shadow.uar);
        ("aba", Json.Int t.Shadow.aba);
        ("aba_harmful", Json.Int t.Shadow.aba_harmful);
        ("findings", Json.Array (List.map witness o.San.o_witnesses));
      ]
  in
  let print_outcome (o : San.outcome) =
    let t = o.San.o_totals in
    Printf.printf
      "%-18s %d schedules  %8d checks  races=%d uaf=%d uar=%d aba=%d \
       (harmful=%d)  %s\n"
      o.San.o_structure
      (List.length o.San.o_schedules)
      t.Shadow.checks t.Shadow.races t.Shadow.uaf t.Shadow.uar t.Shadow.aba
      t.Shadow.aba_harmful
      (if o.San.o_witnesses = [] then "clean" else "FINDINGS");
    List.iter
      (fun (w : San.witness) ->
        Format.printf "  %a@."
          Lfrc_sanitize.Shadow.pp_finding w.San.w_finding;
        Printf.printf "    replay: --strategy %s\n" w.San.w_schedule;
        if w.San.w_lineage <> "" then begin
          String.split_on_char '\n' w.San.w_lineage
          |> List.iter (fun l -> Printf.printf "    | %s\n" l)
        end)
      o.San.o_witnesses;
    if o.San.o_aba_sites <> [] then begin
      Printf.printf "  benign aba by site:";
      List.iter
        (fun (site, n) -> Printf.printf " %s=%d" site n)
        o.San.o_aba_sites;
      print_newline ()
    end
  in
  let run structure json fixtures full workers ops rc_mode =
    let full = full || Sys.getenv_opt "LFRC_SAN_FULL" = Some "1" in
    let schedules = San.schedules ~full in
    let results =
      if fixtures then
        List.map
          (fun (name, _) ->
            match San.run_fixture name with
            | Ok o -> o
            | Error msg -> failwith msg)
          San.fixtures
      else
        let names =
          match structure with
          | Some n -> [ n ]
          | None -> San.structure_names ()
        in
        List.map
          (fun n ->
            match
              San.run_structure ~workers ~ops_per_worker:ops ~schedules
                ~rc_mode n
            with
            | Ok o -> o
            | Error msg -> raise (Failure msg))
          names
    in
    match results with
    | exception Failure msg -> `Error (false, msg)
    | results ->
        if json then
          print_endline
            (Json.to_string
               (Json.Object
                  [
                    ("report", Json.String "lfrc-sanitize");
                    ("runs", Json.Array (List.map json_outcome results));
                  ]))
        else List.iter print_outcome results;
        if fixtures then begin
          let missed =
            List.filter (fun o -> not (San.fixture_detected o)) results
          in
          if missed <> [] then begin
            List.iter
              (fun (o : San.outcome) ->
                Printf.eprintf "fixture NOT detected: %s\n" o.San.o_structure)
              missed;
            exit 1
          end;
          `Ok ()
        end
        else if List.exists (fun o -> o.San.o_witnesses <> []) results then
          exit 1
        else `Ok ()
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Run the shipped structures under LFRC-San, the shadow-memory \
          race / use-after-free / ABA sanitizer, across a matrix of \
          deterministic schedules. Every finding carries a replay token \
          and a lineage excerpt naming both racing operations. Exits 1 on \
          any finding; with --fixtures the gate inverts (the seeded bugs \
          must all be caught).")
    Term.(
      ret
        (const run $ structure $ json $ fixtures_flag $ full $ workers $ ops
        $ rc_mode_term))

let main =
  Cmd.group
    (Cmd.info "lfrc_cli" ~version:"1.0.0"
       ~doc:"Lock-free reference counting (PODC 2001) reproduction toolkit")
    [
      experiments_cmd;
      stats_cmd;
      trace_cmd;
      profile_cmd;
      blame_cmd;
      forensics_cmd;
      check_cmd;
      chaos_cmd;
      analyze_cmd;
      sanitize_cmd;
    ]

let () = exit (Cmd.eval main)
