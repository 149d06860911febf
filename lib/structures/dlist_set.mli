(** A sorted-linked-list set with DCAS-based deletion, over the
    pointer-operation interface.

    The paper reports "several other candidate implementations in the
    pipeline" for the methodology (§2.1); this is one such structure,
    designed in the paper's own idiom. CAS-only ordered lists (Harris)
    need *marked pointers* — stealing a bit from the pointer word — which
    violates the paper's LFRC-compliance criterion (no pointer
    arithmetic). DCAS removes the need: a delete atomically swings
    [prev.next] past the victim *while verifying the victim's own next
    pointer is unchanged*, so no insertion can slip into the gap:

    {v delete cur:  DCAS(&prev.next, &cur.next, (cur, succ), (succ, null)) v}

    Nulling [cur.next] in the same step both "marks" the victim (any
    traverser holding [cur] sees the null and restarts) and severs the
    garbage chain (the paper's Cycle-Free Garbage criterion holds by
    construction).

    Linearization points: [insert] at its CAS; [remove] at its DCAS;
    [contains] at its last load. Values must be strictly increasing along
    the list; duplicates are rejected. *)

module Make (O : Lfrc_core.Ops_intf.OPS_DCAS) : Container_intf.SET

val node_layout : Lfrc_simmem.Layout.t
