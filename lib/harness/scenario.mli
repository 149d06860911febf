(** Concurrent deque scenarios: run a fixed set of per-thread operation
    scripts against a deque implementation under the deterministic
    scheduler, record the history, and judge it against the sequential
    specification with the linearizability checker.

    This is the engine behind the Snark bug hunt (EXPERIMENTS.md A4) and
    the concurrency test suites.

    It also hosts {!config}, the shared experiment configuration record
    that every {!Experiments} entry takes in place of per-experiment
    ad-hoc parameters. *)

type config = {
  threads : int;
      (** worker-thread ceiling for multi-threaded experiments; each
          experiment clamps it to what its matrix tolerates *)
  ops_per_thread : int;  (** per-worker operation count *)
  iters : int;
      (** single-threaded timing-loop iterations (E1's rows, E5's
          wall-clock rows) *)
  seed : int;
      (** base seed; experiments derive their historical per-table seeds
          from it (E2 uses it directly, E4 adds 10.., E5 adds 20, E9 adds
          30), so the default reproduces the historical schedules *)
  fault : Lfrc_faults.Fault_plan.spec option;
      (** when set, E11 runs this single fault spec instead of its
          built-in matrix (other experiments ignore it) *)
  metrics : bool;
      (** collect DCAS/LFRC/heap series into the result's snapshot *)
  trace_capacity : int;  (** tracer ring size; 0 disables tracing *)
  profile : bool;
      (** attribute DCAS/CAS retries and op latencies to labeled call
          sites ({!Lfrc_obs.Profile}); the result then carries a
          contention table *)
  blame : bool;
      (** attribute every failed CAS/DCAS to the winning write that
          invalidated it ({!Lfrc_obs.Blame}); blame-aware experiments
          (E2, E5, E11) then carry an interference report (CLI
          [--blame]) *)
  rc_mode : Lfrc_core.Env.rc_mode;
      (** the count-delivery mode the experiments' LFRC environments
          run in (E1's legs and E2's ablation rows cover all three
          anyway); the CLI's [--deferred-rc] selects [Deferred_rc
          {epoch = deferred_rc_epoch}] and [--wait-free-rc] [Wait_free
          {weight = wait_free_weight}] *)
}

val deferred_rc_epoch : int
(** The parked-adjustment budget every harness user applies in
    deferred-rc mode (64). *)

val wait_free_weight : int
(** The weight batch every harness user mints per fetch-add in
    wait-free mode (64). *)

val rc_mode_label : Lfrc_core.Env.rc_mode -> string
(** The mode as a trace's [rc_mode] metadata names it: ["eager"],
    ["deferred-rc(E)"] or ["wait-free(W)"], with the epoch or weight. *)

val default_config : config
(** threads 8, 1500 ops/thread, 200k iters, seed 11, no fault override,
    metrics on, tracing off, profiling off, blame off, eager rc. *)

type op = Push_left of int | Push_right of int | Pop_left | Pop_right

type res = Done | Popped of int option

val pp_op : Format.formatter -> op -> unit
val pp_res : Format.formatter -> res -> unit

module Deque_spec :
  Lfrc_linearize.Checker.SPEC
    with type op = op
     and type res = res
     and type state = Lfrc_structures.Spec.Deque.t

module Deque_checker : sig
  type verdict =
    | Linearizable of (op * res) list
    | Not_linearizable

  val check_events :
    (op, res) Lfrc_linearize.History.event list -> verdict
end

type outcome = {
  ok : bool;
  history : (op, res) Lfrc_linearize.History.event list;
  steps : int;
}

val run :
  (module Lfrc_structures.Container_intf.DEQUE) ->
  ?gc_final:bool ->
  ?rc_mode:Lfrc_core.Env.rc_mode ->
  ?preload:int list ->
  threads:op list list ->
  Lfrc_sched.Strategy.t ->
  outcome
(** Execute the scenario once under the given strategy. [preload] values
    are pushed on the right by the main thread before workers start; after
    all workers finish, the main thread drains the deque from the left and
    those pops join the checked history. [ok] is the linearizability
    verdict. The heap is created fresh inside the simulation; leak and
    reference-count violations surface as exceptions. [rc_mode] selects
    the environment's reference-count delivery mode (default eager). *)

val body_and_check :
  (module Lfrc_structures.Container_intf.DEQUE) ->
  ?gc_final:bool ->
  ?rc_mode:Lfrc_core.Env.rc_mode ->
  ?preload:int list ->
  threads:op list list ->
  unit ->
  (unit -> unit) * (unit -> unit)
(** The same scenario packaged for {!Lfrc_sched.Explore.check}: a [body]
    to run under forced schedules and a [check] that raises [Failure] on a
    non-linearizable history. *)
