(** Treiber stack reclaimed with epochs: each operation runs pinned, pops
    retire the unlinked node into the current epoch's limbo list.
    Implements {!Lfrc_structures.Container_intf.STACK} for experiment E4. *)

include Lfrc_structures.Container_intf.STACK

val flush : t -> unit
(** Quiescent: advance epochs and drain all limbo lists. *)

val epoch : t -> Epoch.t
(** The underlying epoch-reclamation instance (stats and tests). The
    stack's {!create} registers an {!Lfrc_core.Env.on_recover} hook that
    calls {!Epoch.adopt} for crashed threads, so a dead pinned thread
    stops blocking reclamation once recovery runs. *)
