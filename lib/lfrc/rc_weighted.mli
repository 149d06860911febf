(** Wait-free weighted (split) counts ({!Env.Wait_free}), Blelloch–Wei
    style: the count word holds an object's total weight, copy and
    destroy are single fetch-adds, and the Figure-2 DCAS survives only as
    the load fallback on a weight-exhausted slot. DESIGN.md §17 states
    the weight invariant. *)

type t

val create : weight:int -> t
(** Empty tables; [weight] (clamped to >= 2) is the batch minted per
    refill or publication. *)

val weight : t -> int

include Env_base.DELIVERY with type env = Env_base.t and type state = t

(** {2 Weight tables}

    Each thread's {e pouch} maps addr -> (pooled weight [w], covered refs
    [n]), invariant [w >= n >= 1], packed in one int: one entry covers
    fewer than 2^24 references and holds less than 2^38 weight. A
    reference with no entry carries implicit weight 1. Slots map a heap
    pointer cell to the weight it carries (absent = 1). Every operation
    is mutex-only — atomic under the simulator. *)

val pool_add : t -> addr:int -> w:int -> n:int -> unit
(** Merge [w] weight covering [n] more references into the calling
    thread's pouch entry for [addr] (creating it if absent). *)

val pool_try_share : t -> addr:int -> bool
(** If the entry has spare weight ([w > n]), cover one more reference
    ([n + 1]) and return [true] — the copy fast path. *)

val pool_try_drop_shared : t -> addr:int -> bool
(** If the entry covers more than one reference, drop one ([n - 1]),
    leaving its weight pooled, and return [true] — the destroy fast
    path. *)

val pool_weight : t -> addr:int -> int
(** The pooled weight for [addr] (1 if absent). *)

val pool_give : t -> addr:int -> w:int -> bool
(** Merge [w] weight into an existing entry without covering a new
    reference; [false] if no entry exists. *)

val pool_take_for_transfer : t -> addr:int -> int
(** Surrender the weight a reference hands off to a heap slot: the whole
    pool if this was the last covered reference (entry removed), else 1.
    1 if absent. *)

val slot_take : t -> cell:Lfrc_simmem.Cell.t -> int
(** Remove and return the slot's carried weight (1 if untracked). *)

val slot_set : t -> cell:Lfrc_simmem.Cell.t -> w:int -> unit

val slot_give : t -> cell:Lfrc_simmem.Cell.t -> w:int -> unit
(** Add [w] to the slot's carried weight (the load refill). *)

val slot_try_borrow : t -> cell:Lfrc_simmem.Cell.t -> bool
(** If the slot carries weight >= 2, take 1 and return [true]. *)
