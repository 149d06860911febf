(** A lock-free skip-list set over the pointer-operation interface.

    The paper cites Pugh's concurrent skip lists [16] as a structure whose
    design is "significantly simplified" by garbage collection; this
    implementation carries that example through the LFRC methodology. The
    design composes the repository's DCAS ordered list ({!Dlist_set})
    level-wise:

    - the bottom level is the truth: membership linearizes on bottom-level
      linking (insert's CAS) and unlinking (remove's DCAS, which
      tombstones the victim's bottom link in the same step);
    - upper levels are index shortcuts, linked best-effort after the
      bottom-level insert and unlinked before the bottom-level remove;
      a traversal that stumbles on a dead node at any level simply
      restarts its descent — counted references mean the dead node is
      still safely readable, which is the whole point of the methodology;
    - node levels are chosen by a deterministic per-handle geometric
      distribution (p = 1/2, capped), so runs are reproducible.

    Garbage is cycle-free: a removed node's forward pointers are
    tombstoned level by level, and tombstones point at a live sentinel. *)

val max_level : int

module Make (O : Lfrc_core.Ops_intf.OPS_DCAS) : sig
  val name : string

  type t
  type handle

  val create : Lfrc_core.Env.t -> t

  val register : ?seed:int -> t -> handle
  (** [seed] fixes the handle's deterministic level-choice stream. *)

  val unregister : handle -> unit

  val insert : handle -> int -> bool

  val try_insert : handle -> int -> (bool, [ `Out_of_memory ]) result
  (** Like [insert], but a data-node allocation failure backs out with
      the set untouched. An allocator failure while building the index
      tower is not an error: the element is already linearized into the
      bottom level, so the tower is simply left shorter (upper levels are
      best-effort shortcuts). *)

  val remove : handle -> int -> bool
  val contains : handle -> int -> bool

  val to_list : handle -> int list
  (** Bottom-level snapshot (ascending); quiescent use. *)

  val height_histogram : handle -> int array
  (** How many live nodes exist of each level (1-based index 0 = level 1);
      quiescent use, for tests of the level distribution. *)

  val destroy : t -> unit

  val with_env : Lfrc_core.Env.t -> (handle -> 'a) -> 'a
end

module As_set (O : Lfrc_core.Ops_intf.OPS_DCAS) : Container_intf.SET
(** {!Make} with the seeded [register] eta-expanded away: the skip list
    as a drop-in for anything generic over {!Container_intf.SET}. *)
