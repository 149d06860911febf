(** E10 — what the skip-list index buys: search cost vs. set size.

    The paper cites Pugh's concurrent skip lists [16] as a beneficiary of
    GC-simplified design; this repository carries both an O(n) DCAS
    ordered list and an O(log n) skip list through the LFRC methodology.
    The table shows contains() cost against set size for both, in
    simulated steps (every cell access counts one) — the flat-list cost
    grows linearly, the skip list logarithmically, with the crossover
    around a few dozen elements.

    One thread builds and probes each set, spending the config's op
    budget: set sizes grow by 4x from 16 while they fit in [threads *
    ops_per_thread] elements (16 always runs), and each size gets
    [min 200 ops_per_thread] probes (16..4096 and 200 at the
    default). *)

module Sched = Lfrc_sched.Sched
module Table = Lfrc_util.Table
module Dcas = Lfrc_atomics.Dcas

module List_set = Lfrc_structures.Dlist_set.Make (Lfrc_core.Lfrc_ops)
module Skip_set = Lfrc_structures.Skiplist.Make (Lfrc_core.Lfrc_ops)

(* Cost in simulated steps, every cell access being one: the probe loop
   runs as the only thread of a scheduler run, whose first step is that
   thread's activation. *)
let probe_cost ~probes contains n =
  let rng = Lfrc_util.Rng.create 7 in
  let outcome =
    Sched.run ~max_steps:200_000_000 Lfrc_sched.Strategy.Round_robin
      (fun () ->
        for _ = 1 to probes do
          ignore (contains (Lfrc_util.Rng.int rng (2 * n)))
        done)
  in
  Float.of_int (outcome.Sched.steps - 1) /. Float.of_int probes

let run_list n ~probes ~metrics ~tracer ~profile =
  let env =
    Common.fresh_env ~dcas_impl:Dcas.Atomic_step ~metrics ~tracer ~profile
      ~name:"e10-list" ()
  in
  let s = List_set.create env in
  let h = List_set.register s in
  for k = 1 to n do
    ignore (List_set.insert h (k * 2))
  done;
  let cost = probe_cost ~probes (List_set.contains h) n in
  List_set.unregister h;
  List_set.destroy s;
  cost

let run_skip n ~probes ~metrics ~tracer ~profile =
  let env =
    Common.fresh_env ~dcas_impl:Dcas.Atomic_step ~metrics ~tracer ~profile
      ~name:"e10-skip" ()
  in
  let s = Skip_set.create env in
  let h = Skip_set.register s in
  for k = 1 to n do
    ignore (Skip_set.insert h (k * 2))
  done;
  let cost = probe_cost ~probes (Skip_set.contains h) n in
  Skip_set.unregister h;
  Skip_set.destroy s;
  cost

let run (cfg : Scenario.config) =
  let { Lfrc_obs.Obs.metrics; tracer; profile; _ } = Common.obs cfg in
  let table =
    Table.create
      ~title:"E10: contains() cost vs set size (memory accesses per search)"
      ~columns:[ "size"; "dlist-set"; "skiplist"; "list/skip x" ]
  in
  let probes = min 200 cfg.Scenario.ops_per_thread in
  let budget = max 16 (cfg.Scenario.threads * cfg.Scenario.ops_per_thread) in
  let rec sizes n = if n > budget then [] else n :: sizes (4 * n) in
  List.iter
    (fun n ->
      let l = run_list n ~probes ~metrics ~tracer ~profile
      and s = run_skip n ~probes ~metrics ~tracer ~profile in
      Table.add_rowf table "%d|%.0f|%.0f|%.1f" n l s (l /. s))
    (sizes 16);
  Common.result ~table ~profile metrics
