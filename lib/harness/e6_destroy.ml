(** E6 — destroying long chains: the cost profile of the three destroy
    policies.

    Dropping the last pointer to a long linked structure makes one
    LFRCDestroy reclaim everything transitively — the paper's Section 7
    names the resulting "long delays" and proposes incremental collection.
    Policies compared on chains of growing length:

    - recursive (the paper's Figure 2 verbatim): one unbounded pause, and
      a stack overflow waiting to happen;
    - iterative: same single pause, constant stack;
    - deferred: the pause is split into per-operation slices of
      [budget_per_op] frees; the maximum slice is the bounded pause.

    Destroying a chain is one single-threaded timed call, so the
    config's [iters] sets the scale: chains of [iters/200], [iters/20],
    [iters/2] and [2 * iters] objects (1e3 to 4e5 at the default). *)

module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Lfrc = Lfrc_core.Lfrc
module Env = Lfrc_core.Env
module Table = Lfrc_util.Table

let link_layout = Layout.make ~name:"chain-node" ~n_ptrs:1 ~n_vals:0

let build_chain env n =
  let heap = Env.heap env in
  let root = Heap.root heap ~name:"chain" () in
  let head = ref Heap.null in
  for _ = 1 to n do
    let nd = Lfrc.alloc env link_layout in
    if !head <> Heap.null then begin
      (* transfer the previous head reference into the new node *)
      Lfrc.store_alloc env ~dst:(Heap.ptr_cell heap nd 0) !head
    end;
    head := nd
  done;
  Lfrc.store_alloc env ~dst:root !head;
  root

let deferred_budget = 64

let run_policy policy n ~metrics ~tracer ~profile =
  let env = Common.fresh_env ~policy ~metrics ~tracer ~profile ~name:"e6" () in
  let heap = Env.heap env in
  let root = build_chain env n in
  assert (Heap.live_count heap = n);
  match policy with
  | Env.Recursive | Env.Iterative -> (
      match
        Lfrc_util.Clock.time_ns (fun () -> Lfrc.store env ~dst:root Heap.null)
      with
      | (), ns ->
          assert (Heap.live_count heap = 0);
          Ok (ns, ns)
      | exception Stack_overflow -> Error "stack overflow")
  | Env.Deferred _ ->
      let max_slice = ref 0 and total = ref 0 in
      let (), first =
        Lfrc_util.Clock.time_ns (fun () -> Lfrc.store env ~dst:root Heap.null)
      in
      max_slice := first;
      total := first;
      while Heap.live_count heap > 0 do
        let freed, ns =
          Lfrc_util.Clock.time_ns (fun () ->
              Lfrc.pump_deferred env ~budget:deferred_budget)
        in
        ignore freed;
        total := !total + ns;
        if ns > !max_slice then max_slice := ns
      done;
      Ok (!total, !max_slice)

let run (cfg : Scenario.config) =
  let { Lfrc_obs.Obs.metrics; tracer; profile; _ } = Common.obs cfg in
  let table =
    Table.create ~title:"E6: destroying a chain of N dead objects"
      ~columns:[ "policy"; "N"; "total ms"; "max pause ms"; "note" ]
  in
  let policies =
    [
      ("recursive", Lfrc_core.Env.Recursive);
      ("iterative", Lfrc_core.Env.Iterative);
      ( Printf.sprintf "deferred(%d)" deferred_budget,
        Lfrc_core.Env.Deferred { budget_per_op = deferred_budget } );
    ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (label, policy) ->
          match run_policy policy n ~metrics ~tracer ~profile with
          | Ok (total, max_pause) ->
              Table.add_rowf table "%s|%d|%.3f|%.3f|" label n
                (Float.of_int total /. 1e6)
                (Float.of_int max_pause /. 1e6)
          | Error note -> Table.add_rowf table "%s|%d|-|-|%s" label n note)
        policies)
    (List.map (fun d -> max 1 (2 * cfg.Scenario.iters / d)) [ 400; 40; 4; 1 ]);
  Common.result ~table ~profile metrics
