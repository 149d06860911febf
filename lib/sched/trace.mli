(** Execution traces of the deterministic scheduler.

    A trace is the sequence of scheduling decisions of one run: for every
    step, which thread was chosen and which threads were enabled. Traces
    are what the model checker ({!Explore}) reports as counterexamples and
    what the scripted strategy replays. *)

type step = {
  tid : int;  (** thread chosen at this step *)
  enabled : int;  (** bitmask of enabled thread ids at this step *)
}

type t = step array

val chosen : t -> int array
(** Just the scheduling decisions, suitable for scripted replay. *)

val enabled_list : step -> int list
(** Decode the bitmask into a list of thread ids. *)

val preemptions : t -> int
(** Number of steps at which the scheduler switched away from a thread that
    was still enabled — the measure bounded by CHESS-style exploration. *)
