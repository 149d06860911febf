(** Shared layout definitions for the deque implementations: the paper's
    SNode (two pointer slots L and R, one value slot V, plus the implicit
    rc cell) and the Snark anchor object (Dummy, LeftHat, RightHat). *)

val snode : Lfrc_simmem.Layout.t
val snark : Lfrc_simmem.Layout.t

val slot_l : int
(** Pointer-slot index of the left neighbour link. *)

val slot_r : int
(** Pointer-slot index of the right neighbour link. *)

val slot_v : int
(** Value-slot index of the payload. *)

val slot_dummy : int
val slot_left_hat : int
val slot_right_hat : int

val r_cell : Lfrc_simmem.Heap.t -> Lfrc_simmem.Heap.ptr -> Lfrc_simmem.Cell.t
val v_cell : Lfrc_simmem.Heap.t -> Lfrc_simmem.Heap.ptr -> Lfrc_simmem.Cell.t
