(** Deferred-rc coalescing ({!Env.Deferred_rc}): count adjustments park
    in per-thread buffers, netted in place, and a flush applies each
    address's net delta with one CAS, larger nets first and ties in
    ascending address order. Zero-detect happens only in the flush.
    DESIGN.md §12 carries the invariant argument. *)

type t

val create : epoch:int -> t
(** Empty buffers; [epoch] (clamped to >= 1) parked adjustments trigger
    an automatic flush. *)

include Env_base.DELIVERY with type env = Env_base.t and type state = t

(** {2 Buffer plumbing}

    Every operation is mutex-only — no scheduler yield points — so under
    the simulator each is atomic with respect to interleaving. *)

val park : t -> addr:int -> delta:int -> int
(** Park a ±1 adjustment for [addr] in the calling thread's buffer,
    netting it against any adjustment already parked there (a +1 and a -1
    cancel without touching the heap). Returns the number of park
    operations since the last drain, for the epoch trigger. *)

val parked : t -> int list
(** Addresses with a nonzero parked net, across all threads (duplicates
    possible). *)

val try_begin_flush : t -> bool
(** Claim the flush-in-progress flag; [false] means another thread is
    flushing (its re-drain loop picks up the caller's deltas). The
    claiming thread is recorded so {!recover_flush} can tell a stuck flag
    (dead owner) from a live flush. *)

val end_flush : t -> unit

val drain_into_applying : t -> bool
(** Atomically move every parked delta into the flush's staging table,
    netting against anything already staged. Returns whether any buffer
    had content. Caller must hold the flush flag. A flusher that crashes
    mid-apply therefore loses nothing: staged deltas are never held only
    in its locals. *)

val recover_flush : t -> crashed:int list -> int
(** If the thread holding the flush flag is in [crashed], re-park its
    staged deltas (into the dead owner's buffer, where they stay
    anchored) and release the flag; otherwise do nothing. Returns the
    number of re-parked deltas. *)
