(** E4 — reclamation schemes on the same Treiber stack.

    LFRC (this paper), hazard pointers, epoch-based reclamation, Valois
    free-list counting, and a no-reclamation baseline share one stack
    algorithm and one heap; four simulated threads hammer a 50/50
    push/pop mix. Reported: simulated steps per op (the scheme's access
    overhead and retries), and residual garbage — objects unlinked but
    not yet returned to the allocator when the run ends (LFRC: none by
    construction; hazard: bounded by the scan threshold; epoch: whatever
    the last epochs hold; leak baseline: everything). *)

module Sched = Lfrc_sched.Sched
module Heap = Lfrc_simmem.Heap
module Table = Lfrc_util.Table
module Opmix = Lfrc_workload.Opmix

module Treiber_lfrc = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)
module Treiber_leak = Lfrc_structures.Treiber.Make (Lfrc_core.Gc_ops)

type row = {
  steps_per_op : float;
  residual : int; (* live minus still-reachable stack content *)
  bounded_residual : string; (* scheme-reported garbage high-water mark *)
}

(* Run the mixed workload on stack [ops] inside a simulation; returns the
   row. [residual_of] runs after the simulation, quiescently. *)
let drive ~name ~make ~residual_note ~threads ~ops_per_thread ~seed o =
  let result = ref None in
  let body () =
    let env =
      Common.env ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step o
        (Heap.create ~name ())
    in
    let push, pop, live_reachable, finish = make env in
    let tids =
      List.init threads (fun thr ->
          Sched.spawn (fun () ->
              let do_push, do_pop = push thr, pop thr in
              let stream =
                Opmix.stream Opmix.right_only ~seed ~thread:thr ops_per_thread
              in
              Array.iteri
                (fun i op ->
                  let v = Common.value_stream ~seed ~thread:thr i in
                  match op with
                  | Opmix.Push_right | Opmix.Push_left -> do_push v
                  | Opmix.Pop_right | Opmix.Pop_left -> ignore (do_pop ()))
                stream))
    in
    Sched.join tids;
    let heap = Lfrc_core.Env.heap env in
    let live_before = Heap.live_count heap in
    let still_in_stack = live_reachable () in
    let residual = live_before - still_in_stack in
    result := Some (residual, residual_note (), finish);
    ()
  in
  let outcome = Sched.run ~max_steps:200_000_000 (Lfrc_sched.Strategy.Random seed) body in
  let residual, note, finish = Option.get !result in
  finish ();
  {
    steps_per_op =
      Float.of_int outcome.Sched.steps
      /. Float.of_int (threads * ops_per_thread);
    residual;
    bounded_residual = note;
  }

(* Count the values still reachable in the stack by draining it. *)
let drain_count pop =
  let rec go n = match pop () with None -> n | Some _ -> go (n + 1) in
  go 0

let run (cfg : Scenario.config) =
  (* Four threads saturate the single-stack contention picture; the
     config's ceiling only lowers it. Seeds 21..25 at the default base. *)
  let threads = max 1 (min cfg.Scenario.threads 4) in
  let ops_per_thread = cfg.Scenario.ops_per_thread in
  let seed0 = cfg.Scenario.seed + 10 in
  let o = Common.obs cfg in
  let drive = drive ~threads ~ops_per_thread o in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "E4: reclamation schemes, %d threads x %d ops"
           threads ops_per_thread)
      ~columns:[ "scheme"; "steps/op"; "residual garbage"; "scheme hwm" ]
  in
  let add label m =
    Table.add_rowf table "%s|%.1f|%d|%s" label m.steps_per_op m.residual
      m.bounded_residual
  in
  (* LFRC *)
  add "lfrc"
    (drive ~name:"e4-lfrc" ~seed:seed0
       ~make:(fun env ->
         let s = Treiber_lfrc.create env in
         let handles = Array.init threads (fun _ -> Treiber_lfrc.register s) in
         let h0 = Treiber_lfrc.register s in
         ( (fun thr v -> Treiber_lfrc.push handles.(thr) v),
           (fun thr () -> Treiber_lfrc.pop handles.(thr)),
           (fun () -> drain_count (fun () -> Treiber_lfrc.pop h0)),
           fun () -> () ))
       ~residual_note:(fun () -> "0 by construction"));
  (* Hazard pointers *)
  add "hazard"
    (drive ~name:"e4-hp" ~seed:(seed0 + 1)
       ~make:(fun env ->
         let s = Lfrc_reclaim.Hp_stack.create env in
         let handles =
           Array.init threads (fun _ -> Lfrc_reclaim.Hp_stack.register s)
         in
         let h0 = Lfrc_reclaim.Hp_stack.register s in
         ( (fun thr v -> Lfrc_reclaim.Hp_stack.push handles.(thr) v),
           (fun thr () -> Lfrc_reclaim.Hp_stack.pop handles.(thr)),
           (fun () -> drain_count (fun () -> Lfrc_reclaim.Hp_stack.pop h0)),
           fun () -> () ))
       ~residual_note:(fun () -> "scan threshold 64"));
  (* Epoch *)
  add "epoch"
    (drive ~name:"e4-ebr" ~seed:(seed0 + 2)
       ~make:(fun env ->
         let s = Lfrc_reclaim.Ebr_stack.create env in
         let handles =
           Array.init threads (fun _ -> Lfrc_reclaim.Ebr_stack.register s)
         in
         let h0 = Lfrc_reclaim.Ebr_stack.register s in
         ( (fun thr v -> Lfrc_reclaim.Ebr_stack.push handles.(thr) v),
           (fun thr () -> Lfrc_reclaim.Ebr_stack.pop handles.(thr)),
           (fun () -> drain_count (fun () -> Lfrc_reclaim.Ebr_stack.pop h0)),
           fun () -> () ))
       ~residual_note:(fun () -> "last 2 epochs"));
  (* Valois free-list *)
  add "valois"
    (drive ~name:"e4-valois" ~seed:(seed0 + 3)
       ~make:(fun env ->
         let s = Lfrc_reclaim.Valois_stack.create env in
         let h = Lfrc_reclaim.Valois_stack.register s in
         ( (fun _thr v -> Lfrc_reclaim.Valois_stack.push h v),
           (fun _thr () -> Lfrc_reclaim.Valois_stack.pop h),
           (fun () -> drain_count (fun () -> Lfrc_reclaim.Valois_stack.pop h)),
           fun () -> () ))
       ~residual_note:(fun () -> "free-list, never returned"));
  (* No reclamation *)
  add "leak"
    (drive ~name:"e4-leak" ~seed:(seed0 + 4)
       ~make:(fun env ->
         let s = Treiber_leak.create env in
         let handles = Array.init threads (fun _ -> Treiber_leak.register s) in
         let h0 = Treiber_leak.register s in
         ( (fun thr v -> Treiber_leak.push handles.(thr) v),
           (fun thr () -> Treiber_leak.pop handles.(thr)),
           (fun () -> drain_count (fun () -> Treiber_leak.pop h0)),
           fun () -> () ))
       ~residual_note:(fun () -> "unbounded"));
  Common.result ~table o
