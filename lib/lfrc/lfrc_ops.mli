(** {!Ops_intf.OPS_DCAS} implemented with the LFRC operations: the
    GC-independent side of the paper's transformation (the right column of
    Table 1). Local pointer variables hold counted references; [retire]
    performs the LFRCDestroy the paper's step 6 requires. *)

include Ops_intf.OPS_DCAS
