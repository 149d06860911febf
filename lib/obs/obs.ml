(* The observability bundle: one master switch over every layer.
   [create ~master:false] returns the all-disabled bundle whatever the
   per-layer flags say, so "obs off" is exactly one branch per layer
   everywhere (each layer pattern-matches its own Disabled constructor). *)

type t = {
  metrics : Metrics.t;
  tracer : Tracer.t;
  lineage : Lineage.t;
  profile : Profile.t;
  blame : Blame.t;
}

let disabled =
  {
    metrics = Metrics.disabled;
    tracer = Tracer.disabled;
    lineage = Lineage.disabled;
    profile = Profile.disabled;
    blame = Blame.disabled;
  }

let enabled t =
  Metrics.enabled t.metrics || Tracer.enabled t.tracer
  || Lineage.enabled t.lineage || Profile.enabled t.profile
  || Blame.enabled t.blame

let create ?(master = true) ?(profile = false) ?(blame = false) () =
  if not master then disabled
  else
    let metrics = Metrics.create () in
    let profile = if profile then Profile.create ~metrics () else Profile.disabled in
    let blame = if blame then Blame.create () else Blame.disabled in
    { disabled with metrics; profile; blame }
