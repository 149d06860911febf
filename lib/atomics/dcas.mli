(** The DCAS substrate: the paper's assumed hardware double
    compare-and-swap (as on the Motorola 68020/68040 [CAS2]), with
    single-word companions. Every operation is a scheduler yield point, so
    algorithms built on this layer can be model-checked and simulated
    without change.

    Three interchangeable implementations:

    - [Atomic_step]: relies on the deterministic scheduler — between two
      yield points a simulated thread runs alone, so the two-word update is
      indivisible by construction. Only valid inside [Sched.run].
    - [Striped_lock]: hashes the two cells onto a fixed array of mutexes
      acquired in stripe order (once when both cells share a stripe).
      Models an atomic hardware unit for real multi-domain runs; not
      lock-free, exactly as real [malloc] is not (the paper's footnote 1
      draws the same boundary). A step locks and unlocks inline and
      allocates nothing; when its cell op raises (a write into freed
      memory), it releases its stripes before the exception leaves.
    - [Software_mcas]: the lock-free {!Mcas} substrate. Lock-free, but
      writes descriptors into target cells and therefore must not be used
      under LFRC itself (see {!Mcas}); provided for the E5 ablation.

    DCAS semantics follow the paper's Section 2.2: compare both locations,
    swap both or neither, return whether it succeeded. *)

type impl = Atomic_step | Striped_lock | Software_mcas

type t

val create : impl -> t
val impl : t -> impl
val impl_name : t -> string

val read : t -> Lfrc_simmem.Cell.t -> int
val write : t -> Lfrc_simmem.Cell.t -> int -> unit
val cas : t -> Lfrc_simmem.Cell.t -> int -> int -> bool

val fetch_add : t -> Lfrc_simmem.Cell.t -> int -> int
(** Atomic add returning the previous value; the paper's [add_to_rc] is a
    CAS loop, which we also provide in {!Lfrc}, but the substrate-level
    primitive is used by baselines. *)

val dcas :
  t ->
  Lfrc_simmem.Cell.t ->
  Lfrc_simmem.Cell.t ->
  old0:int ->
  old1:int ->
  new0:int ->
  new1:int ->
  bool

(** {2 Fault injection}

    An installed injector is consulted on every [cas]/[dcas]; answering
    [true] makes that attempt fail {e spuriously}: nothing is compared or
    written and the operation reports failure, exactly the LL/SC-style
    false-negative the paper's retry loops must tolerate. The observer
    sees such an attempt as its own step ([on_spurious_cas] /
    [on_spurious_dcas]), not as a [cas]/[dcas] step. *)

type injector = { inject_cas : unit -> bool; inject_dcas : unit -> bool }

val set_injector : t -> injector option -> unit

(** {2 Observation}

    The substrate keeps no counts of its own. An installed observer is
    called once per step — after the step resolves, before the next
    yield — with the step's operands and outcome: [read] and [write]
    report the cell and value, [fetch_add] the cell, [cas]/[dcas] their
    operands and whether they swapped. An injected failure arrives as
    [on_spurious_cas]/[on_spurious_dcas] instead. A [Software_mcas] step
    is one step however many times {!Mcas} retried inside it. With no
    observer (the default) a step pays one branch and allocates nothing;
    with one, the operands are passed as arguments, never boxed into an
    event. {!Lfrc_core.Env.create} installs on its substrate the one
    observer that fans each step out to metrics, tracer, profiler, blame
    and sanitizer. *)

type observer = {
  on_read : Lfrc_simmem.Cell.t -> int -> unit;
  on_write : Lfrc_simmem.Cell.t -> int -> unit;
  on_rmw : Lfrc_simmem.Cell.t -> unit;
  on_cas : Lfrc_simmem.Cell.t -> old_v:int -> new_v:int -> ok:bool -> unit;
  on_dcas :
    Lfrc_simmem.Cell.t ->
    Lfrc_simmem.Cell.t ->
    old0:int ->
    old1:int ->
    new0:int ->
    new1:int ->
    ok:bool ->
    unit;
  on_spurious_cas : unit -> unit;
  on_spurious_dcas : unit -> unit;
}

val set_observer : t -> observer option -> unit
