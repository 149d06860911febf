(** E8 — pause behaviour across three reclamation regimes: stop-the-world
    tracing, incremental (on-the-fly style) tracing, and LFRC's
    pay-as-you-go frees.

    The same churn workload (push a batch, drain it, repeat) runs in
    GC-dependent mode under the stop-the-world collector, again under the
    incremental collector (whose work is sliced into per-operation
    budgets — the paper's §6 Dijkstra-lineage alternative), and under
    LFRC, where every pop frees exactly one node. Reported: the
    distribution of reclamation-related pauses. STW shows few large
    pauses; the incremental collector and LFRC bound every pause at a
    slice / a node. *)

module Sched = Lfrc_sched.Sched
module Heap = Lfrc_simmem.Heap
module Table = Lfrc_util.Table
module Stats = Lfrc_util.Stats

module Treiber_gc = Lfrc_structures.Treiber.Make (Lfrc_core.Gc_ops)
module Treiber_lfrc = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)

let cycles = 5

let gc_mode ~batch o =
  let pauses = ref [] in
  let body () =
    let heap = Heap.create ~name:"e8-gc" () in
    let env =
      Common.env ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ~gc_threshold:1_024
        o heap
    in
    Lfrc_simmem.Gc_trace.reset_history heap;
    let s = Treiber_gc.create env in
    let h = Treiber_gc.register s in
    for c = 1 to cycles do
      for i = 1 to batch do
        Treiber_gc.push h ((c * batch) + i)
      done;
      let rec drain () = if Treiber_gc.pop h <> None then drain () in
      drain ()
    done;
    Treiber_gc.unregister h;
    pauses :=
      List.map
        (fun (col : Lfrc_simmem.Gc_trace.collection) ->
          Float.of_int col.pause_ns /. 1e3)
        (Lfrc_simmem.Gc_trace.collections heap)
  in
  (* The collector needs the simulator's safe points. *)
  ignore (Sched.run (Lfrc_sched.Strategy.Round_robin) body);
  !pauses

let incremental_mode ~batch o =
  let env = Common.env o (Heap.create ~name:"e8-incr" ()) in
  let heap = Lfrc_core.Env.heap env in
  let gc = Lfrc_simmem.Gc_incr.create ~threshold:1_024 heap in
  Lfrc_core.Env.set_incremental env ~collector:gc ~budget:32;
  let s = Treiber_gc.create env in
  let h = Treiber_gc.register s in
  let pauses = ref [] in
  for c = 1 to cycles do
    for i = 1 to batch do
      let (), ns =
        Lfrc_util.Clock.time_ns (fun () -> Treiber_gc.push h ((c * batch) + i))
      in
      pauses := (Float.of_int ns /. 1e3) :: !pauses
    done;
    let rec drain () =
      let r, ns = Lfrc_util.Clock.time_ns (fun () -> Treiber_gc.pop h) in
      pauses := (Float.of_int ns /. 1e3) :: !pauses;
      if r <> None then drain ()
    in
    drain ()
  done;
  Treiber_gc.unregister h;
  Lfrc_simmem.Gc_incr.finish_cycle gc;
  !pauses

let lfrc_mode ~batch o =
  let env = Common.env o (Heap.create ~name:"e8-lfrc" ()) in
  let s = Treiber_lfrc.create env in
  let h = Treiber_lfrc.register s in
  let pauses = ref [] in
  for c = 1 to cycles do
    for i = 1 to batch do
      Treiber_lfrc.push h ((c * batch) + i)
    done;
    (* each pop reclaims exactly one node; time them individually *)
    let rec drain () =
      let r, ns = Lfrc_util.Clock.time_ns (fun () -> Treiber_lfrc.pop h) in
      pauses := (Float.of_int ns /. 1e3) :: !pauses;
      if r <> None then drain ()
    in
    drain ()
  done;
  Treiber_lfrc.unregister h;
  Treiber_lfrc.destroy s;
  !pauses

let add_row table label pauses =
  match pauses with
  | [] -> Table.add_rowf table "%s|0|-|-|-|-" label
  | _ ->
      let arr = Array.of_list pauses in
      let s = Stats.summarize arr in
      Table.add_rowf table "%s|%d|%.1f|%.1f|%.1f|%.1f" label s.Stats.n
        s.Stats.p50 s.Stats.p90 s.Stats.p99 s.Stats.max

let run (cfg : Scenario.config) =
  let batch = cfg.Scenario.ops_per_thread in
  let o = Common.obs cfg in
  let table =
    Table.create
      ~title:"E8: reclamation pause distribution (microseconds)"
      ~columns:[ "mode"; "events"; "p50"; "p90"; "p99"; "max" ]
  in
  add_row table "gc stop-the-world" (gc_mode ~batch o);
  add_row table "gc incremental (per-op)" (incremental_mode ~batch o);
  add_row table "lfrc per-op" (lfrc_mode ~batch o);
  Common.result ~table o
