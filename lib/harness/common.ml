module Sched = Lfrc_sched.Sched
module Rng = Lfrc_util.Rng
module Metrics = Lfrc_obs.Metrics
module Profile = Lfrc_obs.Profile
module Blame = Lfrc_obs.Blame
module Obs = Lfrc_obs.Obs

module Snark_gc = Lfrc_structures.Snark.Make (Lfrc_core.Gc_ops)
module Snark_fixed_lfrc = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)
module Sundell_lfrc = Lfrc_structures.Sundell_deque.Make (Lfrc_core.Lfrc_ops)

type result = {
  table : Lfrc_util.Table.t;
  metrics : Metrics.snapshot;
  profile : Profile.t;
  blame : Blame.t;
  notes : string list;
}

(* One master switch over every layer: `--no-metrics` (cfg.metrics =
   false) returns the all-disabled bundle regardless of the per-layer
   flags, so "obs off" is provably one branch everywhere. *)
let obs (cfg : Scenario.config) =
  Obs.create ~master:cfg.Scenario.metrics ~profile:cfg.Scenario.profile
    ~blame:cfg.Scenario.blame ()

let result ~table ?(notes = []) (o : Obs.t) =
  {
    table;
    metrics = Metrics.snapshot o.metrics;
    profile = o.profile;
    blame = o.blame;
    notes;
  }

let env ?dcas_impl ?policy ?rc_mode ?gc_threshold ?sanitize (o : Obs.t) heap =
  Lfrc_core.Env.create ?dcas_impl ?policy ?rc_mode ?gc_threshold
    ~metrics:o.metrics ~tracer:o.tracer ~lineage:o.lineage ~profile:o.profile
    ~blame:o.blame ?sanitize heap

let counting (o : Obs.t) =
  if Metrics.enabled o.metrics then o
  else { o with metrics = Metrics.create () }

let k_cas_attempts = Metrics.key "dcas.cas_attempts"
let k_cas_failures = Metrics.key "dcas.cas_failures"
let k_dcas_attempts = Metrics.key "dcas.dcas_attempts"
let k_dcas_failures = Metrics.key "dcas.dcas_failures"

let count_since metrics key =
  let base = Metrics.count metrics key in
  fun () -> Metrics.count metrics key - base

let time_per_op_ns = Lfrc_util.Clock.time_per_op_ns

let deque_impls () =
  [
    ("locked", (module Lfrc_structures.Locked_deque : Lfrc_structures.Container_intf.DEQUE), false);
    ("snark-gc", (module Snark_gc : Lfrc_structures.Container_intf.DEQUE), true);
    ("snark-lfrc", (module Snark_fixed_lfrc : Lfrc_structures.Container_intf.DEQUE), false);
    ("sundell-lfrc", (module Sundell_lfrc : Lfrc_structures.Container_intf.DEQUE), false);
  ]

let value_stream ~seed ~thread i = (((seed * 67) + thread) * 1_000_000) + i

(* --- multi-threaded structure workloads ---

   Shared between E11's chaos matrix, the CLI's workload commands and
   the tests that gate their counters. Each builds its structure inside
   the running simulation and drives [workers] threads for
   [ops_per_worker] operations. Workers use the fallible push operations
   and treat [`Out_of_memory] as a skipped op: graceful degradation is
   part of what the chaos audit certifies. *)

module Stack = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)
module Queue_ = Lfrc_structures.Msqueue.Make (Lfrc_core.Lfrc_ops)
module Deque = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)

let stack_workload ~workers ~ops_per_worker ~seed env =
  let t = Stack.create env in
  let tids =
    List.init workers (fun w ->
        Sched.spawn (fun () ->
            let h = Stack.register t in
            let rng = Rng.create ((seed * 131) + w) in
            for i = 1 to ops_per_worker do
              if Rng.int rng 3 < 2 then
                ignore (Stack.try_push h ((w * 1000) + i))
              else ignore (Stack.pop h)
            done;
            Stack.unregister h))
  in
  Sched.join tids

let queue_workload ~workers ~ops_per_worker ~seed env =
  let t = Queue_.create env in
  let tids =
    List.init workers (fun w ->
        Sched.spawn (fun () ->
            let h = Queue_.register t in
            let rng = Rng.create ((seed * 131) + w) in
            for i = 1 to ops_per_worker do
              if Rng.int rng 3 < 2 then
                ignore (Queue_.try_enqueue h ((w * 1000) + i))
              else ignore (Queue_.dequeue h)
            done;
            Queue_.unregister h))
  in
  Sched.join tids

let generic_deque_workload (module D : Lfrc_structures.Container_intf.DEQUE)
    ~workers ~ops_per_worker ~seed env =
  let t = D.create env in
  let tids =
    List.init workers (fun w ->
        Sched.spawn (fun () ->
            let h = D.register t in
            let rng = Rng.create ((seed * 131) + w) in
            for i = 1 to ops_per_worker do
              match Rng.int rng 4 with
              | 0 -> ignore (D.try_push_left h ((w * 1000) + i))
              | 1 -> ignore (D.try_push_right h ((w * 1000) + i))
              | 2 -> ignore (D.pop_left h)
              | _ -> ignore (D.pop_right h)
            done;
            D.unregister h))
  in
  Sched.join tids

let deque_workload ~workers ~ops_per_worker ~seed env =
  generic_deque_workload (module Deque) ~workers ~ops_per_worker ~seed env

let sundell_workload ~workers ~ops_per_worker ~seed env =
  generic_deque_workload (module Sundell_lfrc) ~workers ~ops_per_worker ~seed
    env

let workloads =
  [
    ("treiber", stack_workload);
    ("msqueue", queue_workload);
    ("snark-fixed", deque_workload);
    ("sundell", sundell_workload);
  ]

let run_workload ?rc_mode o ~workers ~ops_per_worker ~seed workload =
  let heap = Lfrc_simmem.Heap.create ~name:"cli-workload" () in
  let env = env ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ?rc_mode o heap in
  ignore
    (Sched.run ~max_steps:400_000_000 (Lfrc_sched.Strategy.Random seed)
       (fun () -> workload ~workers ~ops_per_worker ~seed env))
