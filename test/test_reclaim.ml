(* Tests for the alternative reclamation schemes: hazard pointers, epochs,
   and the Valois free-list stack. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Layout = Lfrc_simmem.Layout
module Env = Lfrc_core.Env
module Hazard = Lfrc_reclaim.Hazard
module Epoch = Lfrc_reclaim.Epoch
module Hp_stack = Lfrc_reclaim.Hp_stack
module Ebr_stack = Lfrc_reclaim.Ebr_stack
module Valois = Lfrc_reclaim.Valois_stack
module Spec = Lfrc_structures.Spec
module Sched = Lfrc_sched.Sched

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let node = Layout.make ~name:"n" ~n_ptrs:1 ~n_vals:1

let fresh name =
  let heap = Heap.create ~name () in
  (Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap, heap)

(* --- Hazard pointers --- *)

let test_hazard_protect_blocks_free () =
  let heap = Heap.create ~name:"hp1" () in
  let hp = Hazard.create ~scan_threshold:1 heap in
  let s0 = Hazard.register hp and s1 = Hazard.register hp in
  let cell = Cell.make 0 in
  let p = Heap.alloc heap node in
  Cell.set cell p;
  let got = Hazard.protect hp s0 ~idx:0 cell in
  checki "protected value" p got;
  (* another thread unlinks and retires it; threshold 1 forces a scan *)
  Cell.set cell Heap.null;
  Hazard.retire hp s1 p;
  checkb "still live while protected" true (Heap.is_live heap p);
  Hazard.clear hp s0;
  Hazard.retire hp s1 (Heap.alloc heap node) (* trigger another scan *);
  checkb "freed once unprotected" false (Heap.is_live heap p);
  Hazard.unregister hp s0;
  Hazard.unregister hp s1

let test_hazard_protect_validates () =
  let heap = Heap.create ~name:"hp2" () in
  let hp = Hazard.create heap in
  let s = Hazard.register hp in
  let cell = Cell.make 0 in
  let p = Heap.alloc heap node in
  Cell.set cell p;
  checki "reads current value" p (Hazard.protect hp s ~idx:0 cell);
  checki "null protect" Heap.null
    (Cell.set cell Heap.null;
     Hazard.protect hp s ~idx:0 cell);
  Hazard.unregister hp s

let test_hazard_unregister_orphans () =
  let heap = Heap.create ~name:"hp3" () in
  let hp = Hazard.create ~scan_threshold:100 heap in
  let s0 = Hazard.register hp and s1 = Hazard.register hp in
  let cell = Cell.make 0 in
  let p = Heap.alloc heap node in
  Cell.set cell p;
  ignore (Hazard.protect hp s1 ~idx:0 cell) (* s1 protects p *);
  Hazard.retire hp s0 p;
  Hazard.unregister hp s0 (* p still protected: orphaned, not freed *);
  checkb "orphan survives" true (Heap.is_live heap p);
  Hazard.clear hp s1;
  (* a scan from any slot adopts orphans *)
  let s2 = Hazard.register hp in
  let q = Heap.alloc heap node in
  let hp_force = Hazard.create ~scan_threshold:1 heap in
  ignore hp_force;
  Hazard.retire hp s2 q;
  Hazard.unregister hp s2 (* scans, adopting the orphan *);
  checkb "orphan eventually freed" false (Heap.is_live heap p);
  Hazard.unregister hp s1

let test_hazard_stats () =
  let heap = Heap.create ~name:"hp4" () in
  let hp = Hazard.create ~scan_threshold:4 heap in
  let s = Hazard.register hp in
  for _ = 1 to 10 do
    Hazard.retire hp s (Heap.alloc heap node)
  done;
  let st = Hazard.stats hp in
  checkb "freed some" true (st.Hazard.freed >= 8);
  checkb "bounded high-water mark" true (st.Hazard.max_retired <= 4);
  Hazard.unregister hp s

let test_hazard_slots_exhaust () =
  let heap = Heap.create ~name:"hp5" () in
  let hp = Hazard.create ~slots:2 heap in
  let a = Hazard.register hp and b = Hazard.register hp in
  checkb "third slot refused" true
    (match Hazard.register hp with
    | _ -> false
    | exception Failure _ -> true);
  Hazard.unregister hp a;
  (* slot reuse after unregister *)
  let c = Hazard.register hp in
  ignore c;
  Hazard.unregister hp b

(* --- Epochs --- *)

let test_epoch_pin_blocks () =
  let heap = Heap.create ~name:"eb1" () in
  let e = Epoch.create ~advance_every:1 heap in
  let s0 = Epoch.register e and s1 = Epoch.register e in
  let p = Heap.alloc heap node in
  Epoch.pin e s0;
  Epoch.retire e s1 p;
  (* s0 is pinned in the old epoch: the global epoch cannot move two
     steps, so p stays. *)
  for _ = 1 to 5 do
    ignore (Epoch.try_advance e)
  done;
  Epoch.retire e s1 (Heap.alloc heap node);
  checkb "pinned thread blocks reclaim" true (Heap.is_live heap p);
  Epoch.unpin e s0;
  for _ = 1 to 5 do
    ignore (Epoch.try_advance e)
  done;
  Epoch.flush e;
  checkb "reclaimed after unpin" false (Heap.is_live heap p);
  Epoch.unregister e s0;
  Epoch.unregister e s1

let test_epoch_flush_drains () =
  let heap = Heap.create ~name:"eb2" () in
  let e = Epoch.create heap in
  let s = Epoch.register e in
  for _ = 1 to 20 do
    Epoch.retire e s (Heap.alloc heap node)
  done;
  Epoch.flush e;
  checki "all reclaimed at quiescence" 0 (Heap.live_count heap);
  Epoch.unregister e s

let test_epoch_advance_requires_agreement () =
  let heap = Heap.create ~name:"eb3" () in
  let e = Epoch.create heap in
  let s0 = Epoch.register e in
  Epoch.pin e s0;
  checkb "advance with agreeing pin" true (Epoch.try_advance e);
  (* s0 is now pinned in the PREVIOUS epoch: next advance must fail *)
  checkb "advance blocked by stale pin" false (Epoch.try_advance e);
  Epoch.unpin e s0;
  checkb "advance after unpin" true (Epoch.try_advance e);
  Epoch.unregister e s0

let test_epoch_stats () =
  let heap = Heap.create ~name:"eb4" () in
  let e = Epoch.create heap in
  let s = Epoch.register e in
  Epoch.retire e s (Heap.alloc heap node);
  let st = Epoch.stats e in
  checkb "epoch counter present" true (st.Epoch.epoch >= 2);
  checkb "limbo tracked" true (st.Epoch.max_limbo >= 1);
  Epoch.unregister e s

(* --- Stacks on each scheme: sequential conformance --- *)

let stack_conformance (type t h) name
    (module S : Lfrc_structures.Container_intf.STACK with type t = t and type handle = h)
    =
  let env, heap = fresh name in
  let s = S.create env in
  let h = S.register s in
  let rng = Lfrc_util.Rng.create 31 in
  let model = ref Spec.Stack.empty in
  for i = 0 to 1_500 do
    if Lfrc_util.Rng.bool rng then begin
      S.push h i;
      model := Spec.Stack.push i !model
    end
    else begin
      let got = S.pop h in
      let want =
        match Spec.Stack.pop !model with
        | None -> None
        | Some (v, m) ->
            model := m;
            Some v
      in
      if got <> want then
        Alcotest.fail (Printf.sprintf "%s diverged at op %d" name i)
    end
  done;
  S.unregister h;
  S.destroy s;
  heap

let test_hp_stack_conforms () = ignore (stack_conformance "hp" (module Hp_stack))

let test_ebr_stack_conforms () =
  ignore (stack_conformance "ebr" (module Ebr_stack))

let test_valois_stack_conforms () =
  ignore (stack_conformance "valois" (module Valois))

let test_valois_footprint_never_shrinks () =
  let env, heap = fresh "valois-fp" in
  let s = Valois.create env in
  let h = Valois.register s in
  for i = 1 to 100 do
    Valois.push h i
  done;
  let peak = Heap.live_count heap in
  for _ = 1 to 100 do
    ignore (Valois.pop h)
  done;
  checki "drained but nothing returned to the heap" peak
    (Heap.live_count heap);
  let c = Valois.counters s in
  checkb "nodes parked on the free-list" true (c.Valois.freelist_len > 0);
  (* pushing again recycles instead of allocating *)
  let allocs_before = (Heap.stats heap).Heap.allocs in
  for i = 1 to 50 do
    Valois.push h i
  done;
  checki "no new heap allocations" allocs_before (Heap.stats heap).Heap.allocs;
  checkb "recycled counted" true ((Valois.counters s).Valois.recycled >= 50)

(* --- Concurrent stress in the simulator --- *)

let conserved_stress (type t h) name
    (module S : Lfrc_structures.Container_intf.STACK with type t = t and type handle = h)
    ~seeds =
  (* Values pushed = values popped + values drained, per seed. *)
  for seed = 0 to seeds - 1 do
    let body () =
      let env, _heap = fresh name in
      let s = S.create env in
      let pushed = Atomic.make 0 and popped = Atomic.make 0 in
      let tids =
        List.init 3 (fun t ->
            Sched.spawn (fun () ->
                let h = S.register s in
                let rng = Lfrc_util.Rng.create (seed + (t * 131)) in
                for i = 1 to 60 do
                  if Lfrc_util.Rng.bool rng then begin
                    S.push h ((t * 1000) + i);
                    ignore (Atomic.fetch_and_add pushed ((t * 1000) + i))
                  end
                  else
                    match S.pop h with
                    | Some v -> ignore (Atomic.fetch_and_add popped v)
                    | None -> ()
                done;
                S.unregister h))
      in
      Sched.join tids;
      let h0 = S.register s in
      let rec drain () =
        match S.pop h0 with
        | Some v ->
            ignore (Atomic.fetch_and_add popped v);
            drain ()
        | None -> ()
      in
      drain ();
      S.unregister h0;
      if Atomic.get pushed <> Atomic.get popped then
        failwith
          (Printf.sprintf "%s: conservation violated (seed %d)" name seed)
    in
    ignore (Sched.run (Lfrc_sched.Strategy.Random seed) body)
  done

let test_hp_stack_stress () = conserved_stress "hp" (module Hp_stack) ~seeds:25
let test_ebr_stack_stress () = conserved_stress "ebr" (module Ebr_stack) ~seeds:25

let test_valois_stack_stress () =
  conserved_stress "valois" (module Valois) ~seeds:25

let () =
  Alcotest.run "reclaim"
    [
      ( "hazard",
        [
          Alcotest.test_case "protect blocks free" `Quick test_hazard_protect_blocks_free;
          Alcotest.test_case "protect validates" `Quick test_hazard_protect_validates;
          Alcotest.test_case "unregister orphans" `Quick test_hazard_unregister_orphans;
          Alcotest.test_case "stats" `Quick test_hazard_stats;
          Alcotest.test_case "slot exhaustion" `Quick test_hazard_slots_exhaust;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "pin blocks" `Quick test_epoch_pin_blocks;
          Alcotest.test_case "flush drains" `Quick test_epoch_flush_drains;
          Alcotest.test_case "advance agreement" `Quick test_epoch_advance_requires_agreement;
          Alcotest.test_case "stats" `Quick test_epoch_stats;
        ] );
      ( "stacks",
        [
          Alcotest.test_case "hp conforms" `Quick test_hp_stack_conforms;
          Alcotest.test_case "ebr conforms" `Quick test_ebr_stack_conforms;
          Alcotest.test_case "valois conforms" `Quick test_valois_stack_conforms;
          Alcotest.test_case "valois footprint" `Quick test_valois_footprint_never_shrinks;
        ] );
      ( "stress",
        [
          Alcotest.test_case "hp stress" `Slow test_hp_stack_stress;
          Alcotest.test_case "ebr stress" `Slow test_ebr_stack_stress;
          Alcotest.test_case "valois stress" `Slow test_valois_stack_stress;
        ] );
    ]
