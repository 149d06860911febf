(** Load-linked / store-conditional over LFRC pointers.

    The paper's Section 2.1: "it should be straightforward to extend our
    methodology to support other operations such as load-linked and
    store-conditional". This module is that extension, built the same way
    Figure 2 builds the others.

    [load_linked] is LFRCLoad plus a reservation recording the loaded
    value and the generation of the source cell's content;
    [store_conditional] succeeds only if the cell still holds the linked
    value — implemented with LFRCCAS, so its reference-count discipline
    is inherited. Because LFRC guarantees the linked object cannot be
    freed and recycled while the reservation (a counted local reference)
    exists, the classic weakness of CAS-emulated LL/SC — false success
    after ABA — cannot occur on pointer values: the "A" cannot come back
    while we hold it. A test demonstrates exactly this (test_extensions
    "no recycling false-positive"). *)

type reservation
(** A pending link: carries a counted reference to the loaded object. *)

val load_linked : Env.t -> Lfrc_simmem.Cell.t -> reservation
(** Load the pointer in the cell and reserve it. *)

val value : reservation -> Lfrc_simmem.Heap.ptr
(** The pointer that was loaded (null included). *)

val store_conditional :
  Env.t -> reservation -> Lfrc_simmem.Heap.ptr -> bool
(** [store_conditional env r v] installs [v] iff the cell still holds the
    linked pointer. Either way the reservation is consumed (its count
    released); a reservation must not be used twice. *)

val abandon : Env.t -> reservation -> unit
(** Give up a reservation without storing. *)

val validate : Env.t -> reservation -> bool
(** Whether the cell currently still holds the linked value. *)
