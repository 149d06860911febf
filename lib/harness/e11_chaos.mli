(** E11 — chaos matrix: structures × fault kinds × seeds.

    Each cell runs a multi-threaded workload on one LFRC structure under a
    {!Lfrc_faults.Fault_plan} (no faults / spurious CAS+DCAS / allocator
    OOM / single or double thread crash / all mixed) and judges it with
    the post-mortem {!Lfrc_faults.Audit}. Any livelock, unexpected raise,
    or audit finding is counted in the [bad] column and its replay token
    printed. Every crash-completing cell is then replayed with
    [~recover:true]: the [leaked(max)] column shows the bounded leak the
    paper concedes, [leaked(rec)] what remains after the
    {!Lfrc_faults.Recovery} adoption pass — strict-audited, so anything
    but 0 there is a failure ("-" means the cell had no completed run
    with crashes). When the config carries a fault override, the fault
    axis collapses to that one spec (re-seeded per run). *)

type structure
type fault_kind

val structures : structure list
val fault_kinds : fault_kind list
val structure_name : structure -> string
val fault_name : fault_kind -> string

val run_one :
  ?workers:int ->
  ?ops_per_worker:int ->
  ?rc_mode:Lfrc_core.Env.rc_mode ->
  ?recover:bool ->
  ?metrics:Lfrc_obs.Metrics.t ->
  ?profile:Lfrc_obs.Profile.t ->
  ?blame:Lfrc_obs.Blame.t ->
  structure:structure ->
  fault:fault_kind ->
  seed:int ->
  unit ->
  Lfrc_faults.Chaos.report
(** One cell of the matrix, for ad-hoc exploration (the [chaos] CLI
    command); prints nothing. [workers] defaults to 3, [ops_per_worker]
    to 25; [rc_mode] (the count-delivery mode, default eager), [recover]
    (default false: run the crash-recovery adoption pass and audit
    strictly), [metrics], [profile] and [blame] are passed through to
    {!Lfrc_faults.Chaos.run} ([metrics] defaulting to a fresh registry
    private to the run). *)

val run : Scenario.config -> Common.result
