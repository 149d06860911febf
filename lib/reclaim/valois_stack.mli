(** Valois-style CAS-only reference counting with a type-stable free-list
    (the paper's reference [19]) on a Treiber stack.

    The paper's Section 5 explains the contrast: with only single-word
    CAS, the count of an object can be incremented *after* the object was
    freed, so Valois must never return nodes to the general allocator —
    they park on a private free-list whose memory is permanently dedicated
    to the stack ("type-stable"). The stale increment then lands on a
    free node and is compensated when validation fails, which is safe
    precisely because the memory is still a node.

    Consequence measured by experiment E3: the structure's footprint can
    only grow — after a drain, every node sits on the free-list — whereas
    LFRC returns memory to the allocator and the footprint shrinks.

    Deviation, documented in DESIGN.md: Valois's lock-free free-list
    management is replaced by a mutex-protected free-list (the paper's
    own footnote-1 boundary treats the allocator as outside the
    lock-freedom claim); the stack operations themselves are CAS-only and
    use SafeRead counting faithfully. *)

include Lfrc_structures.Container_intf.STACK

type counters = { freelist_len : int; recycled : int }

val counters : t -> counters
