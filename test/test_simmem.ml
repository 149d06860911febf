(* Tests for the simulated manual-memory heap: allocation, recycling,
   corruption detection, roots/frames, the tracing collector, and the
   invariant reporter. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Layout = Lfrc_simmem.Layout
module Config = Lfrc_simmem.Config
module Gc_trace = Lfrc_simmem.Gc_trace
module Report = Lfrc_simmem.Report

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let node = Layout.make ~name:"node" ~n_ptrs:2 ~n_vals:1

(* --- Layout --- *)

let test_layout_slots () =
  checki "cells" 4 (Layout.n_cells node);
  checki "rc at 0" 0 Layout.rc_slot;
  checki "ptr 0" 1 (Layout.ptr_slot node 0);
  checki "ptr 1" 2 (Layout.ptr_slot node 1);
  checki "val 0" 3 (Layout.val_slot node 0)

let test_layout_bounds () =
  Alcotest.check_raises "ptr oob" (Invalid_argument "Layout.ptr_slot")
    (fun () -> ignore (Layout.ptr_slot node 2));
  Alcotest.check_raises "val oob" (Invalid_argument "Layout.val_slot")
    (fun () -> ignore (Layout.val_slot node 1))

(* --- Cell --- *)

let test_cell_roundtrip () =
  let c = Cell.make 42 in
  checki "get" 42 (Cell.get c);
  Cell.set c (-7);
  checki "negative value" (-7) (Cell.get c)

let test_cell_cas () =
  let c = Cell.make 1 in
  checkb "cas hit" true (Cell.cas c 1 2);
  checkb "cas miss" false (Cell.cas c 1 3);
  checki "value" 2 (Cell.get c)

let test_cell_fetch_add () =
  let c = Cell.make 10 in
  checki "prev" 10 (Cell.fetch_and_add c 5);
  checki "now" 15 (Cell.get c)

let test_cell_freeze_poisons () =
  let c = Cell.make 99 in
  Cell.freeze c;
  checki "poisoned read allowed" Config.poison (Cell.get c);
  checkb "frozen" true (Cell.frozen c)

let test_cell_frozen_write_raises () =
  let c = Cell.make 0 in
  Cell.freeze c;
  checkb "write raises" true
    (match Cell.set c 1 with
    | () -> false
    | exception Cell.Corruption _ -> true)

let test_cell_frozen_cas_miss_harmless () =
  let c = Cell.make 0 in
  Cell.freeze c;
  (* The comparison fails against the poison value: no write, no error —
     exactly the hardware-DCAS-on-freed-memory situation LFRCLoad relies
     on. *)
  checkb "failing cas on frozen ok" false (Cell.cas c 0 1)

let test_cell_ids_unique () =
  let a = Cell.make 0 and b = Cell.make 0 in
  checkb "distinct ids" true (Cell.id a <> Cell.id b)

let test_cell_encoding () =
  checki "roundtrip" 123 (Cell.decode (Cell.encode 123));
  checki "negative roundtrip" (-123) (Cell.decode (Cell.encode (-123)));
  checki "tag of plain" 0 (Cell.tag_of_raw (Cell.encode 55))

(* --- Heap basics --- *)

let test_alloc_init () =
  let h = Heap.create () in
  let p = Heap.alloc h node in
  checkb "live" true (Heap.is_live h p);
  checki "rc starts at 1" 1 (Cell.get (Heap.rc_cell h p));
  checki "ptr slots null" 0 (Cell.get (Heap.ptr_cell h p 0));
  checki "val slots zero" 0 (Cell.get (Heap.val_cell h p 0))

let test_null_invalid () =
  let h = Heap.create () in
  checkb "null not live" false (Heap.is_live h Heap.null);
  checkb "invalid ptr raises" true
    (match Heap.rc_cell h 0 with
    | _ -> false
    | exception Heap.Invalid_pointer _ -> true)

let test_free_then_uaf () =
  let h = Heap.create () in
  let p = Heap.alloc h node in
  Heap.free h p;
  checkb "dead" false (Heap.is_live h p);
  checkb "deref raises" true
    (match Heap.ptr_cell h p 0 with
    | _ -> false
    | exception Heap.Use_after_free _ -> true)

let test_double_free () =
  let h = Heap.create () in
  let p = Heap.alloc h node in
  Heap.free h p;
  checkb "double free detected" true
    (match Heap.free h p with
    | () -> false
    | exception Heap.Double_free _ -> true)

let test_id_recycling () =
  let h = Heap.create () in
  let p = Heap.alloc h node in
  let g1 = Heap.generation h p in
  Heap.free h p;
  let q = Heap.alloc h node in
  checki "same id recycled" p q;
  checki "generation bumped" (g1 + 1) (Heap.generation h q);
  checki "rc reset" 1 (Cell.get (Heap.rc_cell h q))

let test_shape_segregation () =
  let h = Heap.create () in
  let small = Layout.make ~name:"small" ~n_ptrs:1 ~n_vals:0 in
  let p = Heap.alloc h node in
  Heap.free h p;
  (* Different shape must not reuse the freed id. *)
  let q = Heap.alloc h small in
  checkb "different shape, different id" true (p <> q)

let test_rc_cell_of_freed_readable () =
  let h = Heap.create () in
  let p = Heap.alloc h node in
  Heap.free h p;
  (* LFRCLoad's DCAS addresses the rc of a possibly-freed object. *)
  checki "poison visible" Config.poison (Cell.get (Heap.rc_cell h p))

let test_stats () =
  let h = Heap.create () in
  let ps = List.init 10 (fun _ -> Heap.alloc h node) in
  List.iteri (fun i p -> if i < 4 then Heap.free h p) ps;
  let s = Heap.stats h in
  checki "allocs" 10 s.Heap.allocs;
  checki "frees" 4 s.Heap.frees;
  checki "live" 6 s.Heap.live;
  checki "peak" 10 s.Heap.peak_live;
  checki "live cells" (6 * Layout.n_cells node) s.Heap.live_cells

let test_iter_live () =
  let h = Heap.create () in
  let ps = List.init 5 (fun _ -> Heap.alloc h node) in
  Heap.free h (List.nth ps 2);
  let seen = ref [] in
  Heap.iter_live h (fun p -> seen := p :: !seen);
  checki "four live" 4 (List.length !seen);
  checkb "freed not iterated" false (List.mem (List.nth ps 2) !seen)

let test_ptr_slot_values () =
  let h = Heap.create () in
  let a = Heap.alloc h node and b = Heap.alloc h node in
  Cell.set (Heap.ptr_cell h a 0) b;
  Alcotest.(check (list int)) "slot values" [ b; 0 ] (Heap.ptr_slot_values h a)

(* With no observer, an alloc+free pair builds no event and no key
   tuple: at most 12 words. *)
let test_alloc_free_budget () =
  let h = Heap.create () in
  Heap.free h (Heap.alloc h node);
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    Heap.free h (Heap.alloc h node)
  done;
  let words = (Gc.minor_words () -. before) /. Float.of_int n in
  if words > 12. then
    Alcotest.failf "%.2f words per alloc+free (budget 12)" words

(* --- Roots and frames --- *)

let test_roots_registry () =
  let h = Heap.create () in
  let r = Heap.root h () in
  checki "one root" 1 (List.length (Heap.roots h));
  Heap.release_root h r;
  checki "released" 0 (List.length (Heap.roots h))

let test_frames () =
  let h = Heap.create () in
  let locals = ref [ 1; 2 ] in
  let f = Heap.register_frame h (fun () -> !locals) in
  let seen = ref [] in
  Heap.iter_frame_roots h (fun p -> seen := p :: !seen);
  checki "frame roots seen" 2 (List.length !seen);
  Heap.unregister_frame h f;
  let seen2 = ref [] in
  Heap.iter_frame_roots h (fun p -> seen2 := p :: !seen2);
  checki "gone after unregister" 0 (List.length !seen2)

(* --- Tracing collector --- *)

let build_list h root n =
  (* root -> n0 -> n1 -> ... *)
  let prev = ref Heap.null in
  for _ = 1 to n do
    let p = Heap.alloc h node in
    Cell.set (Heap.ptr_cell h p 0) !prev;
    prev := p
  done;
  Cell.set root !prev

let test_gc_keeps_reachable () =
  let h = Heap.create ~name:"gc1" () in
  let root = Heap.root h () in
  build_list h root 10;
  let c = Gc_trace.collect h in
  checki "nothing freed" 10 c.Gc_trace.live_after;
  checki "before" 10 c.Gc_trace.live_before

let test_gc_frees_unreachable () =
  let h = Heap.create ~name:"gc2" () in
  let root = Heap.root h () in
  build_list h root 10;
  Cell.set root Heap.null;
  let c = Gc_trace.collect h in
  checki "all freed" 0 c.Gc_trace.live_after

let test_gc_frees_unreachable_cycle () =
  let h = Heap.create ~name:"gc3" () in
  let a = Heap.alloc h node and b = Heap.alloc h node in
  Cell.set (Heap.ptr_cell h a 0) b;
  Cell.set (Heap.ptr_cell h b 0) a;
  let c = Gc_trace.collect h in
  checki "cycle collected by tracer" 0 c.Gc_trace.live_after

let test_gc_respects_frames () =
  let h = Heap.create ~name:"gc4" () in
  let p = Heap.alloc h node in
  let f = Heap.register_frame h (fun () -> [ p ]) in
  ignore (Gc_trace.collect h);
  checkb "frame-rooted object survives" true (Heap.is_live h p);
  Heap.unregister_frame h f;
  ignore (Gc_trace.collect h);
  checkb "collected once frame gone" false (Heap.is_live h p)

let test_gc_history_and_maybe () =
  let h = Heap.create ~name:"gc5" () in
  Gc_trace.reset_history h;
  for _ = 1 to 5 do
    ignore (Heap.alloc h node)
  done;
  checkb "below threshold: no collection" true
    (Gc_trace.maybe_collect h ~threshold:100 = None);
  checkb "above threshold: collects" true
    (Gc_trace.maybe_collect h ~threshold:2 <> None);
  checki "history recorded" 1 (List.length (Gc_trace.collections h))

let test_gc_adaptive_trigger () =
  let h = Heap.create ~name:"gc6" () in
  Gc_trace.reset_history h;
  let root = Heap.root h () in
  build_list h root 10;
  (* All reachable: one collection frees nothing, and the grown trigger
     prevents immediate re-collection. *)
  checkb "first fires" true (Gc_trace.maybe_collect h ~threshold:5 <> None);
  checkb "second suppressed" true (Gc_trace.maybe_collect h ~threshold:5 = None)

(* --- Report --- *)

let test_report_rc_exact_ok () =
  let h = Heap.create ~name:"r1" () in
  let root = Heap.root h () in
  let a = Heap.alloc h node and b = Heap.alloc h node in
  Cell.set root a;
  Cell.set (Heap.ptr_cell h a 0) b;
  Alcotest.(check int) "no violations" 0 (List.length (Report.check_rc_exact h))

let test_report_rc_wrong () =
  let h = Heap.create ~name:"r2" () in
  let root = Heap.root h () in
  let a = Heap.alloc h node in
  Cell.set root a;
  Cell.set (Heap.rc_cell h a) 5;
  checki "flags bad rc" 1 (List.length (Report.check_rc_exact h))

let test_report_extra_refs () =
  let h = Heap.create ~name:"r3" () in
  let a = Heap.alloc h node in
  (* a's count of 1 is a local reference invisible to the heap *)
  checki "without credit: violation" 1
    (List.length (Report.check_rc_exact h));
  checki "with credit: fine" 0
    (List.length
       (Report.check_rc_exact_with h ~extra_refs:(fun p ->
            if p = a then 1 else 0)))

let test_report_unreachable () =
  let h = Heap.create ~name:"r4" () in
  let a = Heap.alloc h node and b = Heap.alloc h node in
  Cell.set (Heap.ptr_cell h a 0) b;
  Cell.set (Heap.ptr_cell h b 0) a;
  checki "both unreachable" 2 (List.length (Report.find_unreachable h))

let test_report_no_leaks () =
  let h = Heap.create ~name:"r5" () in
  Report.assert_no_leaks h;
  let _ = Heap.alloc h node in
  checkb "leak detected" true
    (match Report.assert_no_leaks h with
    | () -> false
    | exception Failure _ -> true)

(* --- qcheck: allocator against a reference model --- *)

let prop_allocator_model =
  QCheck2.Test.make ~name:"alloc/free agrees with a reference allocator"
    ~count:150
    QCheck2.Gen.(list_size (int_range 0 80) (int_bound 2))
    (fun script ->
      let h = Heap.create ~name:"qc-alloc" () in
      let live = Hashtbl.create 16 in
      let order = ref [] in
      let ok = ref true in
      List.iter
        (fun opcode ->
          match opcode with
          | 0 | 1 ->
              let p = Heap.alloc h node in
              if Hashtbl.mem live p then ok := false (* id clash *)
              else begin
                Hashtbl.replace live p ();
                order := p :: !order
              end
          | _ -> (
              match !order with
              | [] -> ()
              | p :: rest ->
                  order := rest;
                  Heap.free h p;
                  Hashtbl.remove live p))
        script;
      let model_live = Hashtbl.length live in
      !ok
      && Heap.live_count h = model_live
      && (let n = ref 0 in
          Heap.iter_live h (fun p ->
              incr n;
              if not (Hashtbl.mem live p) then ok := false);
          !ok && !n = model_live))

let prop_generation_monotone =
  QCheck2.Test.make ~name:"generations increase across recycling" ~count:100
    QCheck2.Gen.(int_range 1 20)
    (fun rounds ->
      let h = Heap.create ~name:"qc-gen" () in
      let p0 = Heap.alloc h node in
      let prev = ref (Heap.generation h p0) in
      Heap.free h p0;
      let ok = ref true in
      for _ = 1 to rounds do
        let p = Heap.alloc h node in
        if p <> p0 then ok := false
        else begin
          let g = Heap.generation h p in
          if g <= !prev then ok := false;
          prev := g
        end;
        Heap.free h p
      done;
      !ok)

let () =
  Alcotest.run "simmem"
    [
      ( "layout",
        [
          Alcotest.test_case "slots" `Quick test_layout_slots;
          Alcotest.test_case "bounds" `Quick test_layout_bounds;
        ] );
      ( "cell",
        [
          Alcotest.test_case "roundtrip" `Quick test_cell_roundtrip;
          Alcotest.test_case "cas" `Quick test_cell_cas;
          Alcotest.test_case "fetch-add" `Quick test_cell_fetch_add;
          Alcotest.test_case "freeze poisons" `Quick test_cell_freeze_poisons;
          Alcotest.test_case "frozen write raises" `Quick test_cell_frozen_write_raises;
          Alcotest.test_case "frozen cas miss harmless" `Quick test_cell_frozen_cas_miss_harmless;
          Alcotest.test_case "unique ids" `Quick test_cell_ids_unique;
          Alcotest.test_case "encoding" `Quick test_cell_encoding;
        ] );
      ( "heap",
        [
          Alcotest.test_case "alloc init" `Quick test_alloc_init;
          Alcotest.test_case "null invalid" `Quick test_null_invalid;
          Alcotest.test_case "use after free" `Quick test_free_then_uaf;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "id recycling" `Quick test_id_recycling;
          Alcotest.test_case "shape segregation" `Quick test_shape_segregation;
          Alcotest.test_case "freed rc readable" `Quick test_rc_cell_of_freed_readable;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "iter live" `Quick test_iter_live;
          Alcotest.test_case "ptr slot values" `Quick test_ptr_slot_values;
          Alcotest.test_case "alloc+free budget" `Quick test_alloc_free_budget;
        ] );
      ( "roots",
        [
          Alcotest.test_case "root registry" `Quick test_roots_registry;
          Alcotest.test_case "frames" `Quick test_frames;
        ] );
      ( "gc-trace",
        [
          Alcotest.test_case "keeps reachable" `Quick test_gc_keeps_reachable;
          Alcotest.test_case "frees unreachable" `Quick test_gc_frees_unreachable;
          Alcotest.test_case "collects cycles" `Quick test_gc_frees_unreachable_cycle;
          Alcotest.test_case "respects frames" `Quick test_gc_respects_frames;
          Alcotest.test_case "history and maybe" `Quick test_gc_history_and_maybe;
          Alcotest.test_case "adaptive trigger" `Quick test_gc_adaptive_trigger;
        ] );
      ( "report",
        [
          Alcotest.test_case "rc exact ok" `Quick test_report_rc_exact_ok;
          Alcotest.test_case "rc wrong flagged" `Quick test_report_rc_wrong;
          Alcotest.test_case "extra refs credited" `Quick test_report_extra_refs;
          Alcotest.test_case "unreachable" `Quick test_report_unreachable;
          Alcotest.test_case "no-leaks assert" `Quick test_report_no_leaks;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_allocator_model;
          QCheck_alcotest.to_alcotest prop_generation_monotone;
        ] );
    ]
