module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy
module Heap = Lfrc_simmem.Heap
module Env = Lfrc_core.Env

type status =
  | Completed of { steps : int; crashed : int list }
  | Livelock of { max_steps : int }
  | Thread_raised of { tid : int; exn : exn }

type report = {
  spec : Fault_plan.spec;
  repro : string;
  status : status;
  audit : Audit.report option;
  audit_advisory : bool;
  recovery : Recovery.report option;
  injected : int;
  metrics : Lfrc_obs.Metrics.snapshot;
  env : Env.t;
}

let run ?(max_steps = 2_000_000) ?(policy = Env.Iterative) ?rc_mode
    ?(dcas_impl = Lfrc_atomics.Dcas.Atomic_step) ?(recover = false)
    ?metrics ?(lineage = Lfrc_obs.Lineage.disabled)
    ?(profile = Lfrc_obs.Profile.disabled)
    ?(blame = Lfrc_obs.Blame.disabled) ~strategy ~spec body =
  let heap = Heap.create ~name:"chaos" () in
  let metrics =
    match metrics with Some m -> m | None -> Lfrc_obs.Metrics.create ()
  in
  let env =
    Env.create ~dcas_impl ~policy ?rc_mode ~metrics ~lineage ~profile ~blame
      heap
  in
  let plan = Fault_plan.make spec in
  Fault_plan.install plan env;
  let repro =
    Printf.sprintf "strategy=%s max_steps=%d %s"
      (Strategy.describe strategy)
      max_steps
      (Fault_plan.spec_to_string spec)
  in
  let status =
    Fun.protect
      ~finally:(fun () -> Fault_plan.uninstall env)
      (fun () ->
        match
          Sched.run ~max_steps
            ~inject_crash:(Fault_plan.crash_hook plan)
            strategy
            (fun () -> body env)
        with
        | o -> Completed { steps = o.Sched.steps; crashed = o.Sched.crashed }
        | exception Sched.Step_limit_exceeded _ -> Livelock { max_steps }
        | exception Sched.Thread_failure { tid; exn; _ } ->
            Thread_raised { tid; exn })
  in
  let audit, audit_advisory, recovery =
    match status with
    | Completed { crashed; _ } ->
        (* Crashed threads' pending blame state (open op frames, open
           retry chains) is adopted into the aggregates, mirroring the
           recovery pass's orphan adoption — blamed work is never leaked
           with its thread. *)
        if crashed <> [] then
          ignore (Lfrc_obs.Blame.adopt (Env.blame env) ~crashed);
        let recovery =
          if recover && crashed <> [] then Some (Recovery.run env ~crashed)
          else None
        in
        (* Deferred-rc parks count deltas that only land at a flush; an
           audit over unflushed buffers would see phantom leaks (parked
           -1s) and phantom under-counts (parked +1s). Crashed threads'
           buffers live in the environment, so this settles their deltas
           too. The recovery pass ends with this same flush. *)
        if recovery = None then Env.settle env;
        (Some (Audit.run ~strict:recover ?recovered:recovery env), false,
         recovery)
    | Livelock _ | Thread_raised _ -> (
        (* The heap is frozen mid-operation, where the audit's invariants
           do not all hold — but a best-effort advisory report (what
           leaked, what dangles) is still worth more than silence when
           triaging the failure. Never let it mask the real outcome. *)
        match
          Env.settle env;
          Audit.run env
        with
        | a -> (Some a, true, None)
        | exception _ -> (None, true, None))
  in
  {
    spec;
    repro;
    status;
    audit;
    audit_advisory;
    recovery;
    injected = Fault_plan.injected plan;
    metrics = Lfrc_obs.Metrics.snapshot metrics;
    env;
  }

let ok r =
  match (r.status, r.audit) with
  | Completed _, Some a -> Audit.ok a
  | _ -> false

let pp_status ppf = function
  | Completed { steps; crashed } ->
      Format.fprintf ppf "completed in %d steps%s" steps
        (match crashed with
        | [] -> ""
        | l ->
            Printf.sprintf " (crashed threads: %s)"
              (String.concat "," (List.map string_of_int l)))
  | Livelock { max_steps } ->
      Format.fprintf ppf "LIVELOCK: step budget %d exhausted" max_steps
  | Thread_raised { tid; exn } ->
      Format.fprintf ppf "THREAD RAISED: tid %d: %s" tid
        (Printexc.to_string exn)

let pp ppf r =
  Format.fprintf ppf "%a@\ninjected=%d@\nreplay: %s" pp_status r.status
    r.injected r.repro;
  if not (Lfrc_obs.Metrics.is_empty r.metrics) then
    Format.fprintf ppf "@\nmetrics: %a" Lfrc_obs.Metrics.pp r.metrics;
  (match r.recovery with
  | None -> ()
  | Some rec_ -> Format.fprintf ppf "@\n%a" Recovery.pp rec_);
  match r.audit with
  | None -> ()
  | Some a ->
      Format.fprintf ppf "@\naudit%s: %a"
        (if r.audit_advisory then " (advisory)" else "")
        Audit.pp a
