(** One fault-injected simulated run, end to end: build a fresh heap and
    environment, install a {!Fault_plan}, execute the body under the
    deterministic scheduler (with the plan's crash hook), classify the
    outcome, and audit the heap post-mortem.

    Every report carries a [repro] token (scheduler strategy + step budget
    + fault-plan spec) from which the run can be replayed exactly:
    {!Lfrc_sched.Strategy.of_string} and {!Fault_plan.spec_of_string}
    parse the two halves. A run that exhausts its step budget is reported
    as [Livelock] rather than raised — the watchdog for retry loops that
    stop compensating under injected failures. *)

type status =
  | Completed of { steps : int; crashed : int list }
      (** all threads finished (crash-injected ones by dying) *)
  | Livelock of { max_steps : int }
      (** step budget exhausted ({!Lfrc_sched.Sched.Step_limit_exceeded}) *)
  | Thread_raised of { tid : int; exn : exn }
      (** a simulated thread raised — graceful degradation failed *)

type report = {
  spec : Fault_plan.spec;
  repro : string;
  status : status;
  audit : Audit.report option;
      (** authoritative when the run completed. The livelock and raise
          outcomes freeze the heap mid-operation, where the audit's
          invariants do not all hold — they get a best-effort {e
          advisory} audit instead ([audit_advisory = true]), or [None]
          if even that raised. *)
  audit_advisory : bool;
      (** the audit above is advisory (non-completed outcome): useful for
          triage, meaningless for pass/fail — {!ok} ignores it *)
  recovery : Recovery.report option;
      (** the adoption pass that ran before the audit, when [recover]
          was set and the completed run had crashed threads *)
  injected : int;  (** faults fired during the run *)
  metrics : Lfrc_obs.Metrics.snapshot;
      (** observability snapshot of the run's environment: DCAS traffic,
          LFRC operation/retry counts, heap alloc/free balance *)
  env : Lfrc_core.Env.t;  (** post-run environment, for extra checks *)
}

val run :
  ?max_steps:int ->
  ?policy:Lfrc_core.Env.policy ->
  ?rc_mode:Lfrc_core.Env.rc_mode ->
  ?dcas_impl:Lfrc_atomics.Dcas.impl ->
  ?recover:bool ->
  ?metrics:Lfrc_obs.Metrics.t ->
  ?lineage:Lfrc_obs.Lineage.t ->
  ?profile:Lfrc_obs.Profile.t ->
  ?blame:Lfrc_obs.Blame.t ->
  strategy:Lfrc_sched.Strategy.t ->
  spec:Fault_plan.spec ->
  (Lfrc_core.Env.t -> unit) ->
  report
(** [run ~strategy ~spec body] executes [body env] as the simulation's
    main thread; [body] typically builds a structure and spawns workers.
    [max_steps] defaults to 2 million; [policy] to [Iterative];
    [rc_mode] (the environment's count-delivery mode, see
    {!Lfrc_core.Env.create}) to [Eager]. A forced {!Lfrc_core.Env.settle}
    lands every count delta the mode holds back (deferred-rc's parked
    buffers) before the post-mortem audit runs. [dcas_impl] defaults
    to [Atomic_step]. [recover] (default false) runs {!Recovery.run} over
    the crashed threads of a completed run and then audits in {e strict}
    mode — the audit passes only if recovery left {e zero} leaked
    objects (see {!Audit}; under [Software_mcas] strict recovery is not
    asserted — {!Recovery} documents the limit). Hooks are
    uninstalled before returning, whatever the outcome. [metrics]
    defaults to a fresh enabled registry private to this run; pass a
    shared one to aggregate across a campaign of runs (the report's
    snapshot then covers everything recorded so far). [lineage] and
    [profile] and [blame] (default disabled) are threaded into the run's
    environment; joining [lineage] against the audit's [leaked_ids] names
    the operation that dropped each leaked object's last reference. When
    a completed run crashed threads, their open op spans and pending
    blame state are adopted ({!Lfrc_core.Env.adopt_spans}) before
    recovery runs, so no blamed work is leaked with its thread. *)

val ok : report -> bool
(** Completed and the (authoritative, non-advisory) audit found
    nothing. Livelock and raise outcomes are never ok, whatever their
    advisory audit says. *)

val pp_status : Format.formatter -> status -> unit
val pp : Format.formatter -> report -> unit
