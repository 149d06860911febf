(** E1 — LFRC operation overhead vs. raw pointer operations.

    The paper's pitch is simplicity with acceptable cost: every LFRC
    operation adds one or two count updates (and LFRCLoad turns a plain
    read into a DCAS loop). This experiment measures the per-operation
    factor on a single thread, with the [Atomic_step] substrate standing
    in for hardware DCAS — once per count-delivery mode, so the table is
    a three-way eager vs deferred-rc vs wait-free ablation. *)

module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Dcas = Lfrc_atomics.Dcas
module Lfrc = Lfrc_core.Lfrc
module Env = Lfrc_core.Env
module Table = Lfrc_util.Table

let layout = Layout.make ~name:"e1-node" ~n_ptrs:2 ~n_vals:1

(* One measurement leg: a fresh env in [rc_mode], timing each LFRC
   operation (and, when [raw] is set, the raw substrate op it wraps).
   Returns [(op, raw_ns option, lfrc_ns)] in fixed row order. *)
let leg ~iters ~raw env =
  let heap = Env.heap env in
  let d = Env.dcas env in
  let cell_a = Heap.root heap ~name:"A" () in
  let cell_b = Heap.root heap ~name:"B" () in
  let a = Lfrc.alloc env layout and b = Lfrc.alloc env layout in
  Lfrc.store_alloc env ~dst:cell_a a;
  Lfrc.store_alloc env ~dst:cell_b b;
  let time f = Common.time_per_op_ns ~iters f in
  let row name raw_f lfrc_f =
    (name, (if raw then Some (time raw_f) else None), time lfrc_f)
  in
  let dest = ref Heap.null in
  let load =
    row "load"
      (fun () -> ignore (Dcas.read d cell_a))
      (fun () -> Lfrc.load env ~src:cell_a ~dest)
  in
  Lfrc.destroy env !dest;
  dest := Heap.null;
  let store =
    row "store"
      (fun () -> Dcas.write d cell_a a)
      (fun () -> Lfrc.store env ~dst:cell_a a)
  in
  let raw_local = ref Heap.null in
  let local = ref Heap.null in
  let copy =
    row "copy"
      (fun () -> raw_local := a)
      (fun () -> Lfrc.copy env ~dest:local a)
  in
  Lfrc.destroy env !local;
  local := Heap.null;
  let cas =
    row "cas"
      (fun () -> ignore (Dcas.cas d cell_a a a))
      (fun () -> ignore (Lfrc.cas env cell_a ~old_ptr:a ~new_ptr:a))
  in
  let dcas =
    row "dcas"
      (fun () ->
        ignore (Dcas.dcas d cell_a cell_b ~old0:a ~old1:b ~new0:a ~new1:b))
      (fun () ->
        ignore (Lfrc.dcas env cell_a cell_b ~old0:a ~old1:b ~new0:a ~new1:b))
  in
  let alloc_free =
    row "alloc+free"
      (fun () ->
        let p = Heap.alloc heap layout in
        Heap.free heap p)
      (fun () ->
        let p = Lfrc.alloc env layout in
        Lfrc.destroy env p)
  in
  (* Settle any deltas still parked by the timing loops so the snapshot's
     alloc/free balance is truthful in deferred-rc mode. *)
  Env.settle env;
  [ load; store; copy; cas; dcas; alloc_free ]

let run (cfg : Scenario.config) =
  let iters = cfg.Scenario.iters in
  let o = Common.obs cfg in
  (* The leg matching the configured mode feeds the shared metrics
     registry; the other two use private throwaway registries so the
     run's aggregate stays pure to the configured mode. *)
  let run_leg rc_mode name =
    let o =
      if rc_mode = cfg.Scenario.rc_mode then o
      else { o with metrics = Lfrc_obs.Metrics.create () }
    in
    let env =
      Common.env ~dcas_impl:Dcas.Atomic_step ~rc_mode o (Heap.create ~name ())
    in
    leg ~iters ~raw:(rc_mode = Env.Eager) env
  in
  let eager = run_leg Env.Eager "e1-eager" in
  let deferred =
    run_leg (Env.Deferred_rc { epoch = Scenario.deferred_rc_epoch })
      "e1-deferred"
  in
  let wait_free =
    run_leg (Env.Wait_free { weight = Scenario.wait_free_weight })
      "e1-wait-free"
  in
  let table =
    Table.create
      ~title:"E1: LFRC op overhead by rc mode (single thread, ns/op)"
      ~columns:
        [ "operation"; "raw"; "eager"; "deferred"; "wait-free"; "overhead x" ]
  in
  List.iter2
    (fun (name, raw_ns, eager_ns) ((_, _, deferred_ns), (_, _, wf_ns)) ->
      let raw = Option.value raw_ns ~default:0.0 in
      Table.add_rowf table "%s|%.1f|%.1f|%.1f|%.1f|%.2f" name raw eager_ns
        deferred_ns wf_ns
        (if raw > 0.0 then eager_ns /. raw else 0.0))
    eager
    (List.combine deferred wait_free);
  Common.result ~table o
