(** Call-site contention and latency profiling.

    Every instrumented operation span ("site": "lfrc.load", "ebr.pop",
    …) opens a frame on its simulated thread's stack; CAS/DCAS failures
    and operation-loop retries that happen underneath charge the
    innermost open frame. Closing the frame accumulates into a per-site
    registry — calls, retries, failed DCAS attempts, scheduler steps
    spent — and observes the per-call burst into the {!Metrics}
    histograms ([<site>.retries], [<site>.steps],
    [dcas.retries.<site>]), zeros included, so the histograms are
    populated deterministically rather than only under contention.

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

(** {1 Attribution} *)

val op_begin : t -> string -> unit
(** Open a frame for site [label] on the current simulated thread. *)

val op_end : t -> unit
(** Close the innermost frame: accumulate into the site registry and
    observe the call's retry/steps bursts into the metrics histograms. *)

val op_retry : t -> unit
(** The innermost open operation's loop re-ran (a {!Lfrc_core.Lfrc}
    retry). Charged to ["(unattributed)"] when no frame is open. *)

val dcas_retry : t -> unit
(** A CAS/DCAS attempt failed underneath the innermost open operation
    (called by the DCAS substrate's observer,
    {!Lfrc_core.Env.observe_dcas}). *)

val current_site : t -> string
(** The innermost open frame's site label on the current simulated
    thread — the attribution key the sanitizer stamps on findings.
    ["(unattributed)"] when no frame is open, ["?"] when disabled. *)

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

val to_json : t -> string
(** [{"sites":[...]}] with one record per {!row}, same order as
    {!rows}. *)

val total_wasted : t -> int
(** Sum of wasted attempts across all sites. *)
