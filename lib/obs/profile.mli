(** Call-site contention and latency profiling.

    Every instrumented operation span ("site": "lfrc.load",
    "lfrc.destroy", …) is a frame on its environment's span stack
    ({!Lfrc_core.Env.span_begin}), charged the CAS/DCAS failures and
    operation-loop retries that happen while it is innermost. Closing
    it hands it to {!op_end}, which accumulates into a per-site registry
    — calls, retries, failed DCAS attempts, scheduler steps spent — and
    observes the per-call burst into the {!Metrics} histograms
    ([<site>.retries], [<site>.steps],
    [dcas.retries.<site>]), zeros included, so the histograms are
    populated deterministically rather than only under contention. The
    profiler keeps no per-thread state.

    Latency is measured in {!Lfrc_sched.Sched.steps_so_far} deltas — the
    deterministic interleaving clock — so a profile replays identically
    under the same seed. Outside a simulation steps are 0; retry and
    call counts still accumulate.

    The disabled profiler follows the disabled {!Metrics} singleton
    pattern: every entry point is a single branch. *)

type t

val create : ?metrics:Metrics.t -> unit -> t
(** A fresh enabled profiler. Per-call bursts are observed into
    [metrics] histograms when given (the registry the harness already
    snapshots); default {!Metrics.disabled} keeps only the site table. *)

val disabled : t
(** The shared no-op profiler: every call is a single branch. *)

val enabled : t -> bool

(** {1 Aggregation} *)

val op_end : t -> Metrics.key -> steps:int -> retries:int -> dcas:int -> unit
(** Aggregate one closed span of the named site, which took [steps]
    scheduler steps and was charged [retries] loop re-runs and [dcas]
    failed attempts, and observe the three into the histograms. A site's
    histogram keys are built once, when the profiler first sees it; a
    call allocates nothing once its buckets have grown. *)

val unattributed : t -> retry:bool -> unit
(** A loop re-ran ([retry]) or a CAS/DCAS attempt failed with no span
    open: charged to the ["(unattributed)"] site, which has no calls. *)

(** {1 Reporting} *)

type row = {
  r_site : string;
  r_calls : int;
  r_retries : int;
  r_dcas_retries : int;
  r_wasted : int;  (** [r_retries + r_dcas_retries]: attempts thrown away *)
  r_steps_total : int;
  r_steps_max : int;
}

val rows : t -> row list
(** Per-site totals, most wasted attempts first (ties by site name).
    ["(unattributed)"] appears only when something was charged to it. *)

val table : t -> string
(** The contention table as aligned text: site, calls, retries, dcas,
    wasted, mean steps/op, max steps. *)

val to_json : t -> Lfrc_util.Json.t
(** [{"sites":[...]}] with one record per {!row}, same order as
    {!rows}; [steps_per_op] prints with four decimals. *)

val total_wasted : t -> int
(** Sum of wasted attempts across all sites. *)
