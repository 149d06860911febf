(** Eager counts (the paper's Figure 2): every count adjustment is a CAS
    loop on the object's count word. *)

include Env_base.DELIVERY with type env = Env_base.t and type state = unit

val add_to_rc : Env_base.t -> Lfrc_simmem.Heap.ptr -> int -> int
(** CAS-loop adjustment of an object's count, returning the previous
    value; the caller must hold a counted reference. *)
