(** Deterministic operation-mix generators for the benchmarks.

    A mix assigns weights to abstract operation kinds; each thread draws
    its own reproducible stream from a seed, so a benchmark run is fully
    determined by (mix, seed, thread count, ops per thread). *)

type kind = Push_left | Push_right | Pop_left | Pop_right

type t

val make : (kind * int) list -> t
(** Weighted mix; weights need not sum to anything in particular. *)

val balanced_deque : t
(** 25% each of the four deque operations. *)

val right_only : t
(** 50/50 push-right/pop-right: single-ended (stack-like) usage. *)

val stream : t -> seed:int -> thread:int -> int -> kind array
(** [stream mix ~seed ~thread n] is thread [thread]'s deterministic
    sequence of [n] operations. *)

val name : t -> string
val pp_kind : Format.formatter -> kind -> unit
