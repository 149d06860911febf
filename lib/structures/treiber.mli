(** Treiber's lock-free stack over the pointer-operation interface.

    The canonical victim of the ABA problem: with manual reclamation and
    plain CAS, a node freed and recycled between a pop's read of the top
    and its CAS corrupts the stack. Under {!Lfrc_core.Lfrc_ops} the local
    reference counts make the recycling impossible — precisely the paper's
    Section 1 argument (and [examples/aba_demo.ml] shows the unprotected
    variant corrupting itself on the same heap). *)

module Make (O : Lfrc_core.Ops_intf.OPS_CAS) : Container_intf.STACK
(** [Cas]-tier: the implementation needs no DCAS, so the functor argument
    is the single-word signature ({!Lfrc_core.Ops_intf.OPS_CAS}); any
    [OPS_DCAS] module still applies. *)

val node_layout : Lfrc_simmem.Layout.t
