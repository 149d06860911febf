(** Call-site contention and latency profiling.

    Every instrumented operation span ("site": "lfrc.load",
    "lfrc.destroy", …) is a frame on its environment's span stack
    ({!Lfrc_core.Env.span_begin}), charged the CAS/DCAS failures and
    operation-loop retries that happen while it is innermost. Closing
    it hands it to {!op_end}, which observes the call's retries, failed
    DCAS attempts and scheduler steps into its site's three {!Metrics}
    histograms ([<site>.retries], [<site>.steps], [dcas.retries.<site>]),
    their only writer, zeros included. The histograms are the profile:
    the profiler keeps no totals and no per-thread state of its own.

    Latency is measured in {!Lfrc_sched.Sched.steps_so_far} deltas — the
    deterministic interleaving clock — so a profile replays identically
    under the same seed. Outside a simulation steps are 0; retry and
    call counts still accumulate.

    The disabled profiler follows the disabled {!Metrics} singleton
    pattern: every entry point is a single branch. *)

type t

val create : ?metrics:Metrics.t -> unit -> t
(** A fresh enabled profiler, observing into [metrics] when it is
    enabled (the registry the harness snapshots), else into a private
    registry. One profiler per registry: a second would double its rows. *)

val disabled : t
(** The shared no-op profiler: every call is a single branch. *)

val enabled : t -> bool

(** {1 Aggregation} *)

val op_end : t -> Metrics.key -> steps:int -> retries:int -> dcas:int -> unit
(** One closed span of the named site, which took [steps] scheduler
    steps and was charged [retries] loop re-runs and [dcas] failed
    attempts, observed into the site's histograms. A site is added under
    a lock the first time it closes; after that a call takes no lock of
    the profiler's and allocates nothing once its buckets have grown. *)

val unattributed : t -> retry:bool -> unit
(** A loop re-ran ([retry]) or a CAS/DCAS attempt failed with no span
    open: charged to the ["(unattributed)"] site, two atomic counters
    with no calls and no histograms. *)

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
(** Per-site totals read back from the histograms ({!Metrics.tally}):
    calls and retries are [<site>.retries]' count and sum, dcas retries
    [dcas.retries.<site>]'s sum, steps [<site>.steps]' sum and max; read
    them once the spans have closed. Most wasted attempts first (ties by
    site name). ["(unattributed)"] appears only when charged. *)

val table : t -> string
(** The contention table as aligned text: site, calls, retries, dcas,
    wasted, mean steps/op, max steps. *)

val to_json : t -> Lfrc_util.Json.t
(** [{"sites":[...]}] with one record per {!row}, same order as
    {!rows}; [steps_per_op] prints with four decimals. *)

val total_wasted : t -> int
(** Sum of wasted attempts across all sites. *)
