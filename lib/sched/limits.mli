(** The scheduler's fixed capacity. *)

val max_threads : int
(** Simulated thread ids are below this cap, so an enabled set fits in
    one [int] bitmask and per-thread tables can be sized once. A run that
    spawns more threads fails with [Invalid_argument]. *)

(** {2 Per-thread slots}

    Per-thread tables hold one slot per simulated thread, from slot 1,
    and slot 0 for tid -1: the scheduler itself, which unwinds a failed
    run's suspended threads. Outside a simulation every caller — each
    real domain included — runs as tid 0 and shares slot 1. *)

val thread_slots : int
(** [max_threads + 1]. *)

val slot_of_tid : int -> int
(** [tid + 1]. *)

val has_slot : int -> bool
(** Whether [tid] has a slot: [-1 <= tid < max_threads]. *)
