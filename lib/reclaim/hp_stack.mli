(** Treiber stack reclaimed with hazard pointers: pop protects the top
    node before dereferencing it and retires it after unlinking.
    Implements {!Lfrc_structures.Container_intf.STACK} for experiment E4. *)

include Lfrc_structures.Container_intf.STACK
