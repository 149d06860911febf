(** Lock-based deque baseline.

    A doubly-linked list guarded by a test-and-set spinlock, with immediate
    manual [free] on pop — trivially correct memory management, because the
    lock serializes everything. This is the world the paper wants to escape
    from: experiment E2 compares its behaviour under contention (every
    spin is a scheduler step, so simulated-time contention is visible)
    against the lock-free deques.

    Implements {!Container_intf.DEQUE}; handles are freely shareable since all
    state is in the structure. *)

include Container_intf.DEQUE
