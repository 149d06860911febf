(** The scheduler's fixed capacity. *)

val max_threads : int
(** Simulated thread ids are below this cap, so an enabled set fits in
    one [int] bitmask and per-thread tables can be sized once. A run that
    spawns more threads fails with [Invalid_argument]. *)
