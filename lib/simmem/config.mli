(** Constants of the simulated memory subsystem. *)

val poison : int
(** Value written into every cell of a freed object. Chosen to be an
    invalid pointer and an implausible user value, so that logic that
    consumes a poisoned read fails loudly downstream. *)
