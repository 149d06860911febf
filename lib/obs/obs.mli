(** The observability bundle: metrics, tracer, lineage, profiler and
    blame under one master switch.

    [create ~master:false] returns {!disabled} regardless of the
    per-layer flags, so a single configuration bit ([--no-metrics] in the
    harness) provably turns every layer into its one-branch disabled
    form. Layers the flags leave off are individually disabled within an
    enabled bundle. *)

type t = {
  metrics : Metrics.t;
  tracer : Tracer.t;
  lineage : Lineage.t;
  profile : Profile.t;
  blame : Blame.t;
}

val disabled : t
(** Every layer in its disabled form. *)

val enabled : t -> bool
(** True iff at least one layer is live. *)

val create : ?master:bool -> ?profile:bool -> ?blame:bool -> unit -> t
(** Defaults: [master = true], profiler and blame off. An enabled
    bundle always has a metrics registry, which its profiler observes
    into. Its tracer and lineage are disabled: a caller that reads a
    trace or a lifecycle record sets that field itself. *)
