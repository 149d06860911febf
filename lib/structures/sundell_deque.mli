(** The Sundell–Tsigas deque, ported to single-word CAS — the catalog's
    first [Cas]-tier citizen and the DCAS ablation's pure-CAS competitor
    to the paper's Snark.

    The functor argument is {!Lfrc_core.Ops_intf.OPS_CAS}, not the full
    DCAS signature: the implementation cannot issue a DCAS because the
    operation is not in its vocabulary — "CAS-only" is discharged by the
    type checker. The port keeps the original's idea (logical deletion by
    marking a node's next link, prev information demoted to fixable
    hints) but simulates the mark bit with marker nodes and replaces the
    per-node prev chain with a single tail hint; DESIGN.md §14 lists
    every deviation from the published helping scheme. *)

module Make (O : Lfrc_core.Ops_intf.OPS_CAS) : Container_intf.DEQUE

val node_layout : Lfrc_simmem.Layout.t
