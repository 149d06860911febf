(** The Michael–Scott lock-free queue [13] over the pointer-operation
    interface — the paper cites it as a structure whose published form
    needs either GC or a permanent free-list; under {!Lfrc_core.Lfrc_ops}
    its nodes are reclaimed eagerly and the ABA problem disappears.

    Garbage is cycle-free: a dequeued node's next pointer leads strictly
    toward newer nodes, so the paper's Cycle-Free Garbage criterion holds
    without modification. *)

module Make (O : Lfrc_core.Ops_intf.OPS_CAS) : Container_intf.QUEUE
(** [Cas]-tier: needs no DCAS; the functor argument is the single-word
    signature, and any [OPS_DCAS] module still applies. *)

val node_layout : Lfrc_simmem.Layout.t
val anchor_layout : Lfrc_simmem.Layout.t
