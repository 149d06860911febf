(** An [int -> int] table that allocates nothing once grown.

    Value 0 means absent: {!find} answers 0 for a missing key, and an
    entry whose value reaches 0 is removed. That makes the table a sparse
    counter — the shape of every per-thread count table in the LFRC
    layer (netted deltas, pouched weight, carried slot weight).

    Entries sit in dense arrays behind an open-addressing hash index, so
    keys of any size work (cell ids grow without bound across a
    process), lookups and updates are O(1) expected, and iterating or
    clearing costs O(entries), not O(capacity). Only growth allocates.
    Not thread-safe: callers hold their own lock. *)

type t

val create : int -> t
(** [create n] is an empty table with room for [n] entries before it
    first grows. *)

val length : t -> int
(** Entries (keys with a nonzero value). *)

val find : t -> int -> int
(** The key's value, 0 when absent. *)

val mem : t -> int -> bool

val add : t -> int -> int -> unit
(** [add t k d] adds [d] to [k]'s value (from 0 when absent), removing
    the entry when the sum is 0. *)

val set : t -> int -> int -> unit
(** [set t k v] binds [k] to [v]; [v = 0] removes the entry. *)

val take : t -> int -> int
(** Remove [k] and return its value (0 when absent). *)

val clear : t -> unit
(** Remove every entry, keeping the capacity. *)

(** {2 Iteration}

    Entries are numbered [0 .. length t - 1]. The numbering is fixed
    between updates; a removal moves the last entry into the freed
    number. A loop over the numbers allocates no closure. *)

val key : t -> int -> int
(** [key t i] is entry [i]'s key. Raises [Invalid_argument] unless
    [0 <= i < length t]. *)

val value : t -> int -> int
(** [value t i] is entry [i]'s value; bounds as {!key}. *)

val keys : t -> int list
(** Every key, in entry order. *)
