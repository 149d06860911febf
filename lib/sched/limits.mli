(** The scheduler's fixed capacity. *)

val max_threads : int
(** Simulated thread ids are below this cap, so an enabled set fits in
    one [int] bitmask and per-thread tables can be sized once. A run that
    spawns more threads fails with [Invalid_argument]. *)

(** {2 Per-thread slots}

    Per-thread tables hold one slot per simulated thread, from slot 1,
    and slot 0 for tid -1: the scheduler itself, which unwinds a failed
    run's suspended threads. Outside a simulation the main domain keeps
    slot 1, and every other real domain holds a slot of its own from
    [thread_slots] up while it lives ({!Sched.slot}). *)

val thread_slots : int
(** [max_threads + 1]: the simulated threads' slots. *)

val domain_slots : int
(** 128, OCaml's cap on live domains: the slots above [thread_slots]
    that real domains draw from. *)

val slots : int
(** [thread_slots + domain_slots]: every slot {!Sched.slot} can return. *)

val slot_of_tid : int -> int
(** [tid + 1]. *)

val has_slot : int -> bool
(** Whether [tid] has a slot: [-1 <= tid < max_threads]. *)
