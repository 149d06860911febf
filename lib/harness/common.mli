(** Shared plumbing for the experiment modules. *)

type result = {
  table : Lfrc_util.Table.t;
  metrics : Lfrc_obs.Metrics.snapshot;
      (** everything the experiment's environments recorded; {!empty} when
          the config disabled metrics *)
  profile : Lfrc_obs.Profile.t;
      (** the call-site contention profiler the experiment threaded
          through its environments; the disabled singleton when the
          config's [profile] flag is off *)
  blame : Lfrc_obs.Blame.t;
      (** the contention-causality registry (victim→culprit interference
          aggregates) blame-aware experiments threaded through their
          environments; the disabled singleton when the config's [blame]
          flag is off *)
  notes : string list;
      (** free-form addenda printed after the table — E5 uses this for
          its leak witnesses (the lineage's attribution of each leaked
          object to the call site that dropped its last reference) *)
}
(** What every experiment's [run] returns: the EXPERIMENTS.md table plus
    the observability snapshot gathered while producing it. *)

val obs : Scenario.config -> Lfrc_obs.Obs.t
(** The observability bundle an experiment should thread through every
    environment it creates, per the config — with [cfg.metrics] as the
    {!Lfrc_obs.Obs.create} master switch, so [--no-metrics] provably
    disables every layer (tracer, profiler, blame included) in one
    branch. An enabled profiler shares the bundle's metrics registry, so
    its per-call bursts land in the snapshot's histograms; an enabled
    blame registry shares the bundle's tracer, so attributed failures
    emit flow events. *)

val result :
  table:Lfrc_util.Table.t ->
  ?profile:Lfrc_obs.Profile.t ->
  ?blame:Lfrc_obs.Blame.t ->
  ?notes:string list ->
  Lfrc_obs.Metrics.t ->
  result
(** Pair the finished table with a snapshot of the registry. *)

val fresh_env :
  ?dcas_impl:Lfrc_atomics.Dcas.impl ->
  ?policy:Lfrc_core.Env.policy ->
  ?rc_mode:Lfrc_core.Env.rc_mode ->
  ?gc_threshold:int ->
  ?metrics:Lfrc_obs.Metrics.t ->
  ?tracer:Lfrc_obs.Tracer.t ->
  ?lineage:Lfrc_obs.Lineage.t ->
  ?profile:Lfrc_obs.Profile.t ->
  ?blame:Lfrc_obs.Blame.t ->
  ?sanitize:Lfrc_sanitize.Shadow.t ->
  name:string ->
  unit ->
  Lfrc_core.Env.t
(** A new heap wrapped in a new environment. *)

(** {2 Substrate counts}

    The [dcas.*] series a substrate's observer writes are the only count
    of its traffic, so a table row that prints attempts or failures reads
    its share of them from a registry. *)

val counting : Lfrc_obs.Metrics.t -> Lfrc_obs.Metrics.t
(** The registry a counting row runs with: [metrics] itself when enabled,
    else a private one, so the row's cells are the same with and without
    [--no-metrics]. *)

val k_cas_attempts : Lfrc_obs.Metrics.key
val k_cas_failures : Lfrc_obs.Metrics.key
val k_dcas_attempts : Lfrc_obs.Metrics.key
val k_dcas_failures : Lfrc_obs.Metrics.key
(** The substrate's [dcas.cas_*] and [dcas.dcas_*] counters. *)

val count_since : Lfrc_obs.Metrics.t -> Lfrc_obs.Metrics.key -> unit -> int
(** [count_since metrics key] reads the counter now; the returned
    function gives how much it has grown since. *)

val time_per_op_ns : iters:int -> (unit -> unit) -> float
(** Wall-clock nanoseconds per call, after a small warmup
    (= {!Lfrc_util.Clock.time_per_op_ns}). *)

val deque_impls :
  unit -> (string * (module Lfrc_structures.Deque_intf.DEQUE) * bool) list
(** (label, implementation, is-GC-dependent) triples used by E2:
    lock-based baseline, GC-dependent Snark, LFRC Snark (corrected), and
    the CAS-only Sundell–Tsigas port under LFRC. *)

val value_stream : seed:int -> thread:int -> int -> int
(** Deterministic distinct-ish value for the [int]h op of a thread. *)

(** {2 Structure workloads}

    Multi-threaded mixed-op drivers over four LFRC structures, shared by
    E11's chaos matrix and the CLI's workload commands. Each must run
    inside {!Lfrc_sched.Sched.run} ({!run_workload} does that); pushes
    are the fallible [try_*] forms with [`Out_of_memory] treated as a
    skipped op. *)

val generic_deque_workload :
  (module Lfrc_structures.Deque_intf.DEQUE) ->
  workers:int ->
  ops_per_worker:int ->
  seed:int ->
  Lfrc_core.Env.t ->
  unit
(** The mixed-op deque driver over any DEQUE instance (the sanitizer
    harness drives the unfixed snark through it). *)

val stack_workload :
  workers:int -> ops_per_worker:int -> seed:int -> Lfrc_core.Env.t -> unit

val queue_workload :
  workers:int -> ops_per_worker:int -> seed:int -> Lfrc_core.Env.t -> unit

val deque_workload :
  workers:int -> ops_per_worker:int -> seed:int -> Lfrc_core.Env.t -> unit

val sundell_workload :
  workers:int -> ops_per_worker:int -> seed:int -> Lfrc_core.Env.t -> unit

val workloads :
  (string
  * (workers:int -> ops_per_worker:int -> seed:int -> Lfrc_core.Env.t -> unit))
  list
(** The workloads keyed by structure name (["treiber"], ["msqueue"],
    ["snark-fixed"], ["sundell"]). *)

val run_workload :
  ?rc_mode:Lfrc_core.Env.rc_mode ->
  ?metrics:Lfrc_obs.Metrics.t ->
  ?tracer:Lfrc_obs.Tracer.t ->
  ?profile:Lfrc_obs.Profile.t ->
  ?blame:Lfrc_obs.Blame.t ->
  workers:int ->
  ops_per_worker:int ->
  seed:int ->
  (workers:int -> ops_per_worker:int -> seed:int -> Lfrc_core.Env.t -> unit) ->
  unit
(** Run one of {!workloads} on a fresh heap over [Atomic_step], under
    the [Random seed] schedule: the run behind the CLI's [stats],
    [trace], [profile] and [blame] commands. The optional layers and
    [rc_mode] default as in {!Lfrc_core.Env.create}. *)
