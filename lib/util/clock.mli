(** Monotonic wall-clock timing helpers for benchmarks. *)

val now_ns : unit -> int
(** Monotonic clock reading in nanoseconds. *)

val time_ns : (unit -> 'a) -> 'a * int
(** [time_ns f] runs [f] and returns its result with the elapsed time. *)

val time_per_op_ns : iters:int -> (unit -> unit) -> float
(** Wall-clock nanoseconds per call, after a small warmup of
    [min 1000 (iters / 10)] calls — the shared timing loop of the
    experiment harness and the benchmark runner. *)
