(** Contention causality: attribute every failed CAS/DCAS to the winning
    write that invalidated it.

    Each successful shared-memory write stamps its cell with the writer's
    (call site, op kind, scheduler step), the site being the innermost
    span of its environment's ({!Lfrc_core.Env.span_site}).
    A failed compare then
    charges one wasted attempt to the (victim site, culprit site) pair —
    under the deterministic scheduler this attribution is exact, because
    the stamp is updated in the same atomic step as the write and threads
    interleave only at scheduler points.

    Aggregates: a site×site interference matrix (wasted attempts +
    scheduler-step staleness per pair), per-site retry-chain statistics
    (the critical path of contended operations), and per-object charge
    counts on cells bound via {!bind_owner} (reference-count cells), which
    name the contended objects.

    Like the other observability layers, {!disabled} makes every hook a
    single branch; the registry writes nothing to [Metrics], so counter
    snapshots are byte-identical with blame on or off.

    Each thread's open retry chain sits in its own slot
    ({!Lfrc_sched.Sched.slot}), a real domain's included. No stamp or
    report names a thread. *)

type t

(** The op kind recorded in a stamp and reported per culprit. *)
type op_kind = Write | Cas | Dcas | Rmw

val create : unit -> t
(** Fresh registry. *)

val disabled : t
val enabled : t -> bool

val new_run : t -> unit
(** Start a new run: clear per-cell stamps and owner bindings and the
    per-thread retry chains. Cell ids are process-wide and never reused,
    so the reset is not needed for correct attribution: it keeps the
    tables from holding every cell a campaign ever wrote, and stops a
    chain left open by the last run from being extended or closed by the
    new run's thread in the same slot. Aggregated pairs/chains/totals
    survive. Called by [Env.create] when a blame registry is attached. *)

val op_end : t -> Metrics.key -> unit
(** The calling thread's span of the named site closed: closes its
    retry chain if that site opened it (the op gave up without a winning
    write). Each thread's open retry chain sits in its own slot, which
    [op_end] tests without a lock; it locks only to close a chain. The
    tables are int-keyed and flat and a stamp is updated in place, so no
    hook hashes a key or allocates once the tables have grown. *)

val bind_owner : t -> cell:int -> addr:int -> unit
(** Mark [cell] as belonging to object [addr], so charges on it count as
    rc contention and name the object. Its one caller is the
    environment's heap observer, which binds each new object's rc cell
    once, at allocation. *)

val stamp : t -> site:Metrics.key -> op_kind -> int -> unit
(** Record a successful write to cell id [int] by the calling thread
    inside [site]; also closes the thread's open retry chain (its op went
    through). *)

val charge : t -> site:Metrics.key -> op_kind -> int -> unit
(** Record a failed CAS/DCAS inside [site] (the victim) whose compare
    lost to the last write on the given cell id; [op_kind] is only used
    when the cell has no stamp. *)

val charge_spurious : t -> site:Metrics.key -> op_kind -> unit
(** Record an injected (fault-plan) failure inside [site]: no real write
    won, charged to the reserved ["(fault-injection)"] culprit. *)

val adopt : t -> crashed:int list -> frames:int -> int * int
(** Fold crashed threads' pending state — the [frames] open spans their
    environment surrendered, their open retry chains — into the
    aggregates. Returns [(frames, chains)] adopted. *)

val pending : t -> int
(** Open retry chains across all threads (0 after clean runs and after
    {!adopt}). *)

(** {2 Aggregate access (tests, the CLI's reports and JSON)} *)

type row = {
  b_victim : string;
  b_culprit : string;
  b_wasted : int;  (** failed attempts charged to the pair *)
  b_steps : int;  (** summed staleness: failure step − culprit write step *)
  b_rc : int;  (** charges on owner-bound (rc) cells *)
  b_kinds : (string * int) list;  (** culprit op kinds, nonzero only *)
  b_addrs : (int * int) list;  (** (owner addr, charges), busiest first *)
}

type chain_row = {
  c_site : string;
  c_chains : int;
  c_adopted : int;
  c_len_total : int;
  c_len_max : int;
  c_steps_total : int;
}

val rows : t -> row list
(** All pairs, worst first; ordering is total, so identical runs produce
    identical lists. *)

val chain_rows : t -> chain_row list
val total_wasted : t -> int
val rc_wasted : t -> int

val top_rc_pair : t -> (string * string * float) option
(** The pair with the most rc-cell charges and its percentage share of
    all rc-cell charges. *)

val adopted : t -> int * int
(** Totals of adopted (frames, chains). *)

(** {2 Rendering} *)

val matrix : t -> string
(** Victim × culprit wasted-attempt matrix, fixed column order. *)

val report : ?top:int -> t -> string
(** Ranked victim→culprit report: the [top] (default 10) pairs, each
    with its busiest object, then the rc headline and the per-site retry
    chains. *)

val to_json : t -> Lfrc_util.Json.t
(** Machine-readable dump: totals, sorted pairs (with per-pair op kinds
    and top objects), and per-site chain stats. Byte-deterministic for a
    given run. *)
