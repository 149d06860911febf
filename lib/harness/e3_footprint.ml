(** E3 — memory footprint across grow/drain phases.

    The paper's Section 1 claim: LFRC "allows the memory consumption of
    the implementation to grow and shrink over time", unlike free-list
    schemes (Valois) whose nodes are permanently dedicated. Hazard and
    epoch reclamation sit in between (bounded / deferred residue). Each
    implementation pushes N values and then drains, three times; the live
    object count on the shared heap is sampled after each phase. *)

module Heap = Lfrc_simmem.Heap
module Table = Lfrc_util.Table

module Treiber_lfrc = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)

let n = 5_000
let cycles = 3

type probe = {
  label : string;
  run : unit -> (int * int) array; (* per cycle: live after grow, after drain *)
}

let phases push pop finish_cycle live =
  Array.init cycles (fun c ->
      for i = 0 to n - 1 do
        push ((c * n) + i)
      done;
      let peak = live () in
      let rec drain () = if pop () <> None then drain () in
      drain ();
      finish_cycle ();
      (peak, live ()))

let probes o : probe list =
  [
    {
      label = "treiber-lfrc";
      run =
        (fun () ->
          let env = Common.env o (Heap.create ~name:"e3-lfrc" ()) in
          let heap = Lfrc_core.Env.heap env in
          let s = Treiber_lfrc.create env in
          let h = Treiber_lfrc.register s in
          let r =
            phases
              (fun v -> Treiber_lfrc.push h v)
              (fun () -> Treiber_lfrc.pop h)
              (fun () -> ())
              (fun () -> Heap.live_count heap)
          in
          Treiber_lfrc.unregister h;
          Treiber_lfrc.destroy s;
          r);
    };
    {
      label = "treiber-valois";
      run =
        (fun () ->
          let env = Common.env o (Heap.create ~name:"e3-valois" ()) in
          let heap = Lfrc_core.Env.heap env in
          let s = Lfrc_reclaim.Valois_stack.create env in
          let h = Lfrc_reclaim.Valois_stack.register s in
          let r =
            phases
              (fun v -> Lfrc_reclaim.Valois_stack.push h v)
              (fun () -> Lfrc_reclaim.Valois_stack.pop h)
              (fun () -> ())
              (fun () -> Heap.live_count heap)
          in
          Lfrc_reclaim.Valois_stack.unregister h;
          Lfrc_reclaim.Valois_stack.destroy s;
          r);
    };
    {
      label = "treiber-hazard";
      run =
        (fun () ->
          let env = Common.env o (Heap.create ~name:"e3-hp" ()) in
          let heap = Lfrc_core.Env.heap env in
          let s = Lfrc_reclaim.Hp_stack.create env in
          let h = Lfrc_reclaim.Hp_stack.register s in
          let r =
            phases
              (fun v -> Lfrc_reclaim.Hp_stack.push h v)
              (fun () -> Lfrc_reclaim.Hp_stack.pop h)
              (fun () -> ())
              (fun () -> Heap.live_count heap)
          in
          Lfrc_reclaim.Hp_stack.unregister h;
          Lfrc_reclaim.Hp_stack.destroy s;
          r);
    };
    {
      label = "treiber-epoch";
      run =
        (fun () ->
          let env = Common.env o (Heap.create ~name:"e3-ebr" ()) in
          let heap = Lfrc_core.Env.heap env in
          let s = Lfrc_reclaim.Ebr_stack.create env in
          let h = Lfrc_reclaim.Ebr_stack.register s in
          let r =
            phases
              (fun v -> Lfrc_reclaim.Ebr_stack.push h v)
              (fun () -> Lfrc_reclaim.Ebr_stack.pop h)
              (fun () -> Lfrc_reclaim.Ebr_stack.flush s)
              (fun () -> Heap.live_count heap)
          in
          Lfrc_reclaim.Ebr_stack.unregister h;
          Lfrc_reclaim.Ebr_stack.destroy s;
          r);
    };
  ]

let run (cfg : Scenario.config) =
  let o = Common.obs cfg in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E3: live objects across %d grow(%d)/drain cycles" cycles n)
      ~columns:[ "impl"; "cycle"; "live@peak"; "live@drained" ]
  in
  List.iter
    (fun p ->
      let r = p.run () in
      Array.iteri
        (fun c (peak, drained) ->
          Table.add_rowf table "%s|%d|%d|%d" p.label (c + 1) peak drained)
        r)
    (probes o);
  Common.result ~table o
