(** A cell is one word of simulated shared memory: the unit on which the
    atomic primitives (read, write, CAS, DCAS) operate. Cells belong either
    to a heap object (rc, pointer and value slots) or to a root (a global
    pointer variable such as the Snark deque's hats).

    Values are stored internally with two low tag bits (00 = plain value),
    reserving the other tag codes for the software-MCAS substrate's
    descriptors ({!Mcas} in the atomics library). Application values are
    therefore limited to 61 bits — far beyond any object id or test
    value used here.

    Plain reads of a freed object's cell are deliberately allowed and
    return the poison value: the paper's LFRCLoad reads [a->rc] of an
    object that may already have been freed, relying on the fact that freed
    memory is still mapped and a read is harmless. Writes (including
    successful CAS/DCAS) to a frozen cell are corruption and raise —
    detecting exactly the class of bug LFRC exists to prevent. *)

type t

exception Corruption of string

val make : ?frozen:bool -> int -> t
(** [make v] allocates a fresh cell holding [v] with a unique id. *)

val id : t -> int
(** Unique id; provides the global total order used by the striped-lock
    DCAS to acquire locks consistently. *)

val get : t -> int
(** Raw atomic read; never raises (benign read of freed memory). Must not
    be used while an MCAS may be in flight on this cell — use the
    dispatching read in the atomics library instead. *)

val set : t -> int -> unit
(** Atomic write. Raises {!Corruption} on a frozen cell. *)

val cas : t -> int -> int -> bool
(** Single-word compare-and-swap on plain values. A successful CAS on a
    frozen cell raises {!Corruption}. *)

val fetch_and_add : t -> int -> int
(** Atomic add; returns the previous value. Frozen-checked like {!set}.
    Only sound when no descriptor can be present. *)

val freeze : t -> unit
(** Mark the cell as belonging to freed memory and poison its value. *)

val thaw : t -> int -> unit
(** Reinitialize the cell to [v] on (re)allocation. *)

val frozen : t -> bool

(* Raw access for the MCAS substrate. *)

val encode : int -> int
(** Application value -> raw word (tag 00). *)

val decode : int -> int
(** Raw word with tag 00 -> application value. *)

val tag_of_raw : int -> int
(** The two tag bits of a raw word. 0 = plain value. *)

val raw : t -> int Atomic.t
(** The underlying atomic. Frozen checking is the caller's
    responsibility. *)

val check_write : t -> string -> unit
(** Raise {!Corruption} if the cell is frozen; exposed so the
    MCAS substrate can apply the same policy to its raw writes. *)
