(** The Snark DCAS-based lock-free deque (Detlefs, Flood, Garthwaite,
    Martin, Shavit, Steele, DISC 2000) — the example the paper transforms.

    This is the *published* algorithm, faithfully reconstructed: the
    paper's Figure 1 gives the class declarations and pushRight; the other
    three operations mirror it per the cited DISC paper, using the LFRC
    paper's own modification of installing null pointers instead of
    sentinel self-pointers (its step 3, making garbage cycle-free).

    Instantiated with {!Lfrc_core.Gc_ops} it is the paper's left column
    (GC-dependent); with {!Lfrc_core.Lfrc_ops} it is the right column
    (GC-independent). Both share this one functor body: the transformation
    of Section 3 / Table 1 is the functor application.

    Beware: the published algorithm has real races, discovered after
    publication (Doherty et al., "DCAS is not a silver bullet for
    nonblocking algorithm design", SPAA 2004) and rediscovered here by the
    model checker (see [examples/find_snark_bug.ml] and EXPERIMENTS.md
    A4). {!Snark_fixed} is the corrected variant used for sustained
    workloads. *)

module Make (O : Lfrc_core.Ops_intf.OPS_DCAS) : Container_intf.DEQUE
