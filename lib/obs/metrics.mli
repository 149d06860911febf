(** Per-environment metrics registry: counters, gauges, and histograms.

    The paper's cost claims are all about {e hidden per-operation work} —
    extra DCAS attempts inside LFRCLoad, retry loops under contention,
    deferred frees — which end-to-end wall time cannot attribute. Every
    layer of the system (the LFRC operations, the DCAS substrate, the
    simulated heap, the reclamation baselines) reports into one of these
    registries, and the experiment harness snapshots it next to each
    table.

    A registry is either {e enabled} (created by {!create}) or the shared
    {e disabled} singleton: on the disabled registry every recording
    operation is a single branch and touches nothing, so instrumentation
    can stay unconditionally in the hot paths ({!Lfrc_core.Lfrc}, the
    DCAS substrate's observer) at negligible cost when observability is
    off.

    Series names are interned once into {!key}s, so a recording call
    indexes a slot rather than hashing a string. Counters, and the
    buckets that hold a histogram's samples in \[0, 4096), are atomic
    cells, exact on real domains without a lock; gauges and any other
    histogram sample sit under the registry's mutex. Several environments
    may share one registry — the harness does exactly that to aggregate
    an experiment's sub-runs. *)

type t

val create : unit -> t
(** A fresh enabled registry with no series. *)

val disabled : t
(** The shared no-op registry: recording is a single branch, {!snapshot}
    is empty. This is what {!Lfrc_core.Env.create} uses by default. *)

val enabled : t -> bool

(** {2 Keys} *)

type key = private int
(** An interned series name: a dense index, process-wide, so the same
    name gives the same key in every registry. Other layers index their
    own per-site tables by it. *)

val key : string -> key
(** Intern a name. This takes a process-wide lock, so call it once — at
    module initialisation or when a call site is created — and keep the
    key. *)

val key_name : key -> string
(** The name a key was interned from. *)

(** {2 Recording}

    Series are named by convention ["layer.event"], e.g.
    ["dcas.dcas_attempts"], ["lfrc.load_retry"], ["heap.allocs"]. A series
    springs into existence on first use. All recording operations are
    no-ops on the disabled registry. *)

val incr : t -> key -> unit
(** Add 1 to a counter. *)

val add : t -> key -> int -> unit
(** Add an arbitrary amount to a counter. Adding 0 still creates the
    series. *)

val count : t -> key -> int
(** A counter's current value, read live without a {!snapshot} (which
    copies and sorts every series); 0 when the series does not exist or
    the registry is disabled. Callers that want one run's share of a
    shared registry take the difference of two reads. *)

val set_gauge : t -> key -> int -> unit
(** Set a gauge's current value; the registry also retains the maximum
    ever set (high-water mark). *)

val observe : t -> key -> int -> unit
(** Record one sample into a histogram series. A sample in \[0, 4096)
    bumps its bucket without the registry lock and, once the series has
    grown a bucket that far, allocates nothing; any other sample takes
    the lock. *)

val tally : t -> key -> int * int * int
(** A histogram's sample count, sum and largest sample, read without a
    {!snapshot}; [(0, 0, 0)] when it has none. *)

(** {2 Snapshots} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * (int * int)) list;  (** name → (last, max) *)
  samples : (string * float array) list;
      (** histogram series, each sorted ascending *)
}

val snapshot : t -> snapshot
(** A consistent copy of the registry, in time linear in the samples held
    (each series' samples come out sorted by merging its buckets with its
    few out-of-range samples). The disabled registry snapshots to
    {!empty}. *)

val empty : snapshot

val is_empty : snapshot -> bool

val reset : t -> unit
(** Drop every series. *)

val counter_value : snapshot -> string -> int
(** 0 when the series does not exist. *)

val gauge_value : snapshot -> string -> (int * int) option

val merge : snapshot -> snapshot -> snapshot
(** Pointwise union: counters add, gauges keep the latest last-value and
    the max of maxima, histogram samples merge in sorted order. Used to
    aggregate snapshots taken from registries that could not be shared
    (e.g. separate chaos cells). *)

val to_json : snapshot -> Lfrc_util.Json.t
(** A JSON object [{"counters": {...}, "gauges": {name: {"last","max"}},
    "histograms": {name: {"n","mean","p50","p90","p99","max"}}}].
    Histograms are summarized with {!Lfrc_util.Stats}; a histogram number
    prints as an integer ([%.0f]) when it is one below 1e15, else
    [%.6g]. *)

val pp : Format.formatter -> snapshot -> unit
(** Compact human-readable rendering (one series per line). *)
