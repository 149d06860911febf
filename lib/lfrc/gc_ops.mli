(** {!Ops_intf.OPS_DCAS} implemented with raw pointer operations in a
    garbage-collected environment: the GC-dependent side of the paper's
    transformation (the left column of Table 1).

    Nothing is ever freed by this implementation; reclamation is the
    tracing collector's job ({!Lfrc_simmem.Gc_trace}). Each context
    registers its local pointer variables in a shadow-stack frame so the
    collector can see thread-local roots — standing in for the register
    and stack scanning a production collector performs (and which the
    paper identifies as the reason such collectors stop the world). *)

include Ops_intf.OPS_DCAS
