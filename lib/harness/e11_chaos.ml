(** E11 — chaos matrix: LFRC structures under injected faults.

    Crosses the lock-free structures with the three fault kinds of
    {!Lfrc_faults.Fault_plan} — spurious CAS/DCAS failures, simulated
    allocator OOM, and thread crashes at scheduler-chosen yield points —
    across several seeds, and judges every run with the post-mortem
    {!Lfrc_faults.Audit}: no premature free, counts never below the
    heap-visible references, every leak attributable to a crashed
    thread's lost references. A run that exhausts its step budget is a
    livelock (a retry loop that stopped compensating); its replay token
    is printed so the schedule and fault plan can be reproduced.

    The worker workloads themselves live in {!Common} (shared with the
    CLI's [stats]/[trace] commands). *)

module Strategy = Lfrc_sched.Strategy
module Table = Lfrc_util.Table
module Fault_plan = Lfrc_faults.Fault_plan
module Chaos = Lfrc_faults.Chaos

type structure = {
  s_name : string;
  body :
    workers:int -> ops_per_worker:int -> seed:int -> Lfrc_core.Env.t -> unit;
}

let structure_name s = s.s_name

(* The matrix stays tractable at 3 workers x 25 ops: 3 structures x 5
   fault kinds x 3 seeds already means 45 full simulations. The config's
   knobs only shrink these. *)
let default_workers = 3
let default_ops_per_worker = 25

let structures =
  List.map
    (fun (s_name, body) -> { s_name; body })
    Common.workloads

(* Queue creation allocates before the fault hooks see a chance to have
   any effect on workers, so a creation-time OOM is a legitimate outcome
   under alloc faults; bodies run create under the plan, and [Chaos.run]
   reports the raise. The matrix keeps creation fallible on purpose:
   graceful degradation includes "the constructor surfaces OOM". *)

type fault_kind = { f_name : string; spec_for : seed:int -> Fault_plan.spec }

let fault_name f = f.f_name

let fault_kinds =
  [
    { f_name = "none"; spec_for = (fun ~seed -> { Fault_plan.default with seed }) };
    {
      f_name = "spurious";
      spec_for =
        (fun ~seed ->
          {
            Fault_plan.default with
            seed;
            cas_fail_prob = 0.05;
            dcas_fail_prob = 0.05;
            max_spurious = 60;
          });
    };
    {
      f_name = "oom";
      spec_for =
        (fun ~seed ->
          { Fault_plan.default with seed; alloc_fail_prob = 0.2; max_spurious = 30 });
    };
    {
      f_name = "crash";
      spec_for =
        (fun ~seed ->
          (* Kill worker 1 + seed mod workers at a seed-dependent resume:
             different seeds land the crash in different operation
             phases. *)
          {
            Fault_plan.default with
            seed;
            crashes = [ (1 + (seed mod default_workers), 5 + (seed * 7 mod 120)) ];
          });
    };
    {
      f_name = "multi-crash";
      spec_for =
        (fun ~seed ->
          (* Two distinct victims, staggered resumes: the second crash
             lands while the first thread's orphans are already in the
             registries, so recovery must adopt across owners. *)
          {
            Fault_plan.default with
            seed;
            crashes =
              [
                (1 + (seed mod default_workers), 5 + (seed * 7 mod 120));
                (1 + ((seed + 1) mod default_workers), 20 + (seed * 11 mod 90));
              ];
          });
    };
    {
      f_name = "mixed";
      spec_for =
        (fun ~seed ->
          {
            Fault_plan.default with
            seed;
            cas_fail_prob = 0.03;
            dcas_fail_prob = 0.03;
            alloc_fail_prob = 0.05;
            max_spurious = 40;
            crashes =
              [ (1 + (seed mod default_workers), 10 + (seed * 13 mod 100)) ];
          });
    };
  ]

(* A config-supplied fault spec collapses the fault axis to that one
   plan (re-seeded per run so the seed column still varies). *)
let fault_kinds_for (cfg : Scenario.config) =
  match cfg.Scenario.fault with
  | None -> fault_kinds
  | Some spec ->
      [
        {
          f_name = "custom";
          spec_for = (fun ~seed -> { spec with Fault_plan.seed });
        };
      ]

let run_one ?(workers = default_workers)
    ?(ops_per_worker = default_ops_per_worker) ?rc_mode
    ?(recover = false) ?metrics ?profile ?blame ~structure ~fault ~seed () =
  let spec = fault.spec_for ~seed in
  Chaos.run ?metrics ?profile ?blame ?rc_mode ~recover ~max_steps:400_000
    ~strategy:(Strategy.Random seed)
    ~spec
    (fun env ->
      match structure.body ~workers ~ops_per_worker ~seed env with
      | () -> ()
      | exception Lfrc_simmem.Heap.Simulated_oom ->
          (* Constructor-time OOM: nothing was built; that is graceful. *)
          ())

let seeds = [ 1; 2; 3 ]

let run (cfg : Scenario.config) =
  let workers = max 1 (min cfg.Scenario.threads default_workers) in
  let ops_per_worker =
    max 1 (min cfg.Scenario.ops_per_thread default_ops_per_worker)
  in
  let o = Common.obs cfg in
  let { Lfrc_obs.Obs.metrics; profile; blame; _ } = o in
  let table =
    Table.create ~title:"E11: chaos matrix (faults injected per kind)"
      ~columns:
        [
          "structure";
          "fault";
          "runs";
          "completed";
          "audit-ok";
          "leaked(max)";
          "leaked(rec)";
          "injected(sum)";
          "bad";
        ]
  in
  let failures = ref [] in
  List.iter
    (fun structure ->
      List.iter
        (fun fault ->
          let runs = List.length seeds in
          let completed = ref 0
          and audit_ok = ref 0
          and leaked_max = ref 0
          and injected = ref 0
          and bad = ref 0
          and rec_ran = ref false
          and rec_leaked_max = ref 0 in
          List.iter
            (fun seed ->
              let r =
                run_one ~workers ~ops_per_worker
                  ~rc_mode:cfg.Scenario.rc_mode
                  ~metrics ~profile ~blame ~structure ~fault ~seed ()
              in
              injected := !injected + r.Chaos.injected;
              (match r.Chaos.status with
              | Chaos.Completed _ -> incr completed
              | Chaos.Livelock _ | Chaos.Thread_raised _ ->
                  incr bad;
                  failures := r :: !failures);
              (match r.Chaos.audit with
              | Some a when not r.Chaos.audit_advisory ->
                  leaked_max := max !leaked_max a.Lfrc_faults.Audit.leaked;
                  if Lfrc_faults.Audit.ok a then incr audit_ok
                  else begin
                    incr bad;
                    failures := r :: !failures
                  end
              | Some _ | None -> ());
              (* The recovery column: replay every crash-completing cell
                 with adoption on. Its strict audit tolerates nothing —
                 a completed recovered run must leak zero objects. *)
              match r.Chaos.status with
              | Chaos.Completed { crashed = _ :: _; _ } ->
                  let rr =
                    run_one ~workers ~ops_per_worker
                      ~rc_mode:cfg.Scenario.rc_mode
                      ~recover:true ~metrics ~profile ~blame ~structure ~fault
                      ~seed ()
                  in
                  rec_ran := true;
                  (match rr.Chaos.audit with
                  | Some a when not rr.Chaos.audit_advisory ->
                      rec_leaked_max :=
                        max !rec_leaked_max a.Lfrc_faults.Audit.leaked
                  | Some _ | None -> ());
                  if not (Chaos.ok rr) then begin
                    incr bad;
                    failures := rr :: !failures
                  end
              | _ -> ())
            seeds;
          Table.add_rowf table "%s|%s|%d|%d|%d|%d|%s|%d|%d" structure.s_name
            fault.f_name runs !completed !audit_ok !leaked_max
            (if !rec_ran then string_of_int !rec_leaked_max else "-")
            !injected !bad)
        (fault_kinds_for cfg))
    structures;
  List.iter
    (fun r ->
      Format.printf "@.chaos failure:@.%a@." Chaos.pp r)
    !failures;
  Common.result ~table o
