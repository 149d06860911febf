(** E7 — cyclic garbage: what plain LFRC leaks and the backup tracer
    reclaims.

    The paper's Cycle-Free Garbage criterion (Section 2.1) exists because
    counts in a garbage cycle never reach zero; Section 7 proposes an
    occasional tracing pass as the remedy. We build rings (cycles),
    chains (acyclic), and rings with chains hanging off them, drop every
    external reference, and show that LFRC reclaims exactly the acyclic
    part while {!Lfrc_cycle.Cycle_collector} finishes the job. *)

module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Lfrc = Lfrc_core.Lfrc
module Env = Lfrc_core.Env
module Table = Lfrc_util.Table

let node = Layout.make ~name:"e7-node" ~n_ptrs:2 ~n_vals:0

(* A ring of [k] nodes: each points to the next; dropping the external
   reference leaves every count at 1. *)
let build_ring env k =
  let heap = Env.heap env in
  let first = Lfrc.alloc env node in
  let prev = ref first in
  for _ = 2 to k do
    let nd = Lfrc.alloc env node in
    Lfrc.store_alloc env ~dst:(Heap.ptr_cell heap !prev 0) nd;
    prev := nd
  done;
  (* close the cycle: the ring's own reference to [first] *)
  Lfrc.store env ~dst:(Heap.ptr_cell heap !prev 0) first;
  (first, !prev)

let build_chain env k =
  let heap = Env.heap env in
  let head = ref Heap.null in
  for _ = 1 to k do
    let nd = Lfrc.alloc env node in
    if !head <> Heap.null then
      Lfrc.store_alloc env ~dst:(Heap.ptr_cell heap nd 0) !head;
    head := nd
  done;
  !head

let scenario env ~rings ~ring_size ~chains ~chain_len ~tails =
  let heap = Env.heap env in
  let root = Heap.root heap ~name:"e7" () in
  let anchor = Lfrc.alloc env (Layout.make ~name:"e7-anchor" ~n_ptrs:(rings + chains) ~n_vals:0) in
  let slot = ref 0 in
  for _ = 1 to rings do
    let first, last = build_ring env ring_size in
    if tails > 0 then begin
      (* hang an acyclic tail off the ring: reclaimable only with it *)
      let tail = build_chain env tails in
      Lfrc.store_alloc env ~dst:(Heap.ptr_cell heap last 1) tail
    end;
    Lfrc.store_alloc env ~dst:(Heap.ptr_cell heap anchor !slot) first;
    (* the ring closure added one count; drop the constructor's own *)
    incr slot
  done;
  for _ = 1 to chains do
    let head = build_chain env chain_len in
    Lfrc.store_alloc env ~dst:(Heap.ptr_cell heap anchor !slot) head;
    incr slot
  done;
  Lfrc.store_alloc env ~dst:root anchor;
  root

let run (cfg : Scenario.config) =
  let o = Common.obs cfg in
  let table =
    Table.create ~title:"E7: cyclic garbage and the backup tracer"
      ~columns:
        [ "structure"; "objects"; "lfrc freed"; "leaked"; "tracer freed"; "tracer us" ]
  in
  let case label ~rings ~ring_size ~chains ~chain_len ~tails =
    let env = Common.env o (Heap.create ~name:"e7" ()) in
    let heap = Env.heap env in
    let root = scenario env ~rings ~ring_size ~chains ~chain_len ~tails in
    let before = Heap.live_count heap in
    Lfrc.store env ~dst:root Heap.null;
    Heap.release_root heap root;
    let leaked = Heap.live_count heap in
    let c = Lfrc_cycle.Cycle_collector.collect heap in
    assert (Heap.live_count heap = 0);
    Table.add_rowf table "%s|%d|%d|%d|%d|%.1f" label before (before - leaked)
      leaked c.Lfrc_cycle.Cycle_collector.cyclic_freed
      (Float.of_int c.Lfrc_cycle.Cycle_collector.pause_ns /. 1e3)
  in
  case "100 chains x 50" ~rings:0 ~ring_size:0 ~chains:100 ~chain_len:50
    ~tails:0;
  case "100 rings x 10" ~rings:100 ~ring_size:10 ~chains:0 ~chain_len:0
    ~tails:0;
  case "50 rings + 50 chains" ~rings:50 ~ring_size:10 ~chains:50 ~chain_len:10
    ~tails:0;
  case "100 rings w/ 20-node tails" ~rings:100 ~ring_size:5 ~chains:0
    ~chain_len:0 ~tails:20;
  Common.result ~table o
