(** Deterministic cooperative scheduler built on OCaml effects.

    Simulated threads are ordinary closures that call {!point} at every
    shared-memory operation (the atomics layer does this automatically).
    Between two yield points a thread runs atomically, so each primitive
    memory operation is indivisible with respect to other simulated
    threads — exactly the granularity at which the paper's algorithms must
    be correct.

    The same algorithm code runs unchanged under real domains: outside a
    simulation {!point} is a no-op.

    A scheduler run is single-domain and must not be nested. *)

exception Step_limit_exceeded of int
(** Raised (inside [run]) when the run exceeds its step budget — the
    livelock detector for randomized checking. *)

exception
  Thread_failure of {
    tid : int;
    exn : exn;
    trace : Trace.t option;
    repro : string;
  }
(** Raised by [run] when a simulated thread raised; carries the trace when
    recording was on and a replay token ([strategy=… max_steps=…], with the
    strategy rendered by {!Strategy.describe}) so the failure is
    reproducible from its error message alone. A printer including the
    token is registered with [Printexc]. *)

type outcome = {
  steps : int;  (** total scheduling decisions taken *)
  per_thread_steps : int array;
  trace : Trace.t option;  (** present iff [record] was true *)
  crashed : int list;  (** threads killed by [inject_crash], in crash order *)
}

val run :
  ?max_steps:int ->
  ?record:bool ->
  ?inject_crash:(tid:int -> step:int -> bool) ->
  Strategy.t ->
  (unit -> unit) ->
  outcome
(** [run strategy main] executes [main] as thread 0, scheduling it and any
    threads it {!spawn}s until all have finished. [max_steps] defaults to
    10 million; [record] (default [false]) keeps the full trace.

    [inject_crash] is the fault-injection hook: it is consulted once each
    time the scheduler is about to resume a thread parked at a yield point
    (including a thread's very first activation, and a resume taken in
    place, where the thread at the {!point} is chosen again), and
    answering [true] permanently fails that thread there — it never runs
    again and no cleanup code executes, modelling a thread crash
    ({!kill}'s semantics, but driven at an exact {!point}). Crashed
    threads count as finished for {!join} and appear in
    [outcome.crashed]. *)

val spawn : ?name:string -> (unit -> unit) -> int
(** Create a new simulated thread; returns its id. Must be called from
    inside a run. The spawner keeps running (spawn is not a yield point). *)

exception Stuck of { unfinished : int list }
(** Raised by [run] when no thread is runnable but some have not finished
    (a join cycle — cannot happen with well-formed fork/join use). *)

val join : int list -> unit
(** Block the calling simulated thread until all the given threads have
    finished. Must be called from inside a run. *)

val kill : int -> unit
(** Permanently fail a simulated thread: it is never scheduled again and
    its pending work simply vanishes — the paper's footnote 3 scenario
    ("it is possible for garbage to exist and never be freed in the case
    where a thread fails permanently"). Joins waiting on it are released
    (the thread is finished, albeit abnormally). Must be called from
    inside a run; killing the current thread is not supported. *)

val point : unit -> unit
(** Yield point: one scheduling decision. Inside a simulation the
    strategy chooses the thread that runs next; when it chooses the
    caller again the step is taken in place, and otherwise the caller
    parks until it is chosen. Outside: no-op. *)

val active : unit -> bool
(** Whether the calling code is executing inside a simulation run. *)

val tid : unit -> int
(** Current simulated thread id; 0 outside a simulation. *)

val slot : unit -> int
(** The calling thread's slot in per-thread tables, below
    {!Limits.slots}. Simulated thread [t] has slot [t + 1]
    ({!Limits.slot_of_tid}). Outside a simulation the main domain has
    slot 1, and any other domain draws a slot of its own, at or above
    {!Limits.thread_slots}, on its first call; it gives the slot back
    when it exits, and the next domain to draw one gets the slot given
    back last. *)

val steps_so_far : unit -> int
(** Scheduling decisions taken so far in the current run; usable as a
    simulated clock by harness code. 0 outside a simulation. *)

val name_of : int -> string
(** The thread's name in the current run ("main", a [spawn ~name], or the
    default ["t<id>"]); falls back to ["t<id>"] outside a simulation or
    for an unknown id. For diagnostics (sanitizer witnesses). *)
