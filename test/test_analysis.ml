(* Tests for the static LFRC discipline checker: one deliberately broken
   mini-structure per defect class, each of which the checker must flag
   with the right class (several only on a non-default path, proving the
   enumerator actually explores); a bypass fixture that calls Lfrc
   directly under the symbolic environment; and the clean-pass gate — the
   checker must report zero violations on every shipped structure. *)

module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Env = Lfrc_core.Env
module Ir = Lfrc_analysis.Ir
module Absint = Lfrc_analysis.Absint
module Report = Lfrc_analysis.Report
module Checker = Lfrc_analysis.Checker
module Catalog = Lfrc_structures.Catalog

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let fixture_layout = Layout.make ~name:"fixture" ~n_ptrs:2 ~n_vals:1

(* Small limits keep the suite quick; every fixture's defect is reachable
   within a handful of decision flips. *)
let limits = { Checker.max_paths = 60; max_decisions = 24 }

(* Each fixture builds one anchor object during (muted) setup so the
   action has a real cell to load from, then misbehaves in the action. *)

let classes_of (r : Report.structure_report) =
  List.concat_map
    (fun (a : Report.action_report) ->
      List.map (fun (f : Report.finding) -> f.Report.cls) a.Report.findings)
    r.Report.actions

let has_class cls r = List.mem cls (classes_of r)

let errors_of (r : Report.structure_report) =
  Report.errors { Report.structures = [ r ] }

(* --- the five defect classes --- *)

let test_flags_leak () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-leak"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let cell = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              O.load ctx cell l
              (* no retire: leaks on every completed path *) );
        ])
  in
  checkb "leak flagged" true (has_class Absint.Leak r);
  checkb "has errors" true (errors_of r > 0)

let test_flags_double_destroy () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-double-destroy"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let cell = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              O.load ctx cell l;
              O.retire ctx l;
              O.retire ctx l );
        ])
  in
  checkb "double-destroy flagged" true (has_class Absint.Double_destroy r)

let test_flags_use_after_retire () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-use-after-retire"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let cell = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              O.retire ctx l;
              O.load ctx cell l;
              O.retire ctx l );
        ])
  in
  checkb "use-after-retire flagged" true (has_class Absint.Use_after_retire r)

(* The raw pointer escapes only on paths where the load observed a real
   object — the default (null) path is clean, so catching this proves the
   enumerator explores non-default oracle choices. *)
let test_flags_escaping_get () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-escaping-get"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let cell = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              O.load ctx cell l;
              let p = O.get l in
              O.retire ctx l;
              (* p is now a dangling borrow *)
              ignore (O.cas ctx cell ~old_ptr:p ~new_ptr:Heap.null) );
        ])
  in
  checkb "escaping-get flagged" true (has_class Absint.Escaping_get r)

let test_flags_unowned_store () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-unowned-store"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let cell = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              O.load ctx cell l;
              let p = O.get l in
              O.retire ctx l;
              O.store ctx cell p );
        ])
  in
  checkb "unowned-store flagged" true (has_class Absint.Unowned_store r)

(* The borrow itself is never *used* after the owner dies — so
   escaping-get stays quiet — but it is still held when the flush runs,
   which under deferred-rc is exactly when the object may be freed. *)
let test_flags_borrow_across_flush () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-borrow-across-flush"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let cell = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              O.load ctx cell l;
              let _p = O.get l in
              O.retire ctx l;
              (* the borrow's only owner is gone; the flush may free it *)
              O.flush ctx );
        ])
  in
  checkb "borrow-across-flush flagged" true
    (has_class Absint.Borrow_across_flush r)

(* A live owner spanning the flush keeps the borrow safe: the parked
   decrements cannot drop the object's count to zero while [l] owns it. *)
let test_borrow_with_live_owner_spans_flush () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-borrow-owned-flush"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let cell = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              O.load ctx cell l;
              let _p = O.get l in
              O.flush ctx;
              O.retire ctx l );
        ])
  in
  checki "owned borrow across flush is clean" 0 (errors_of r)

(* The unbalanced split: the copy mints a second weight-bearing
   reference to the loaded object and only the original is ever retired.
   Under wait-free weighted rc that strands weight on the count forever
   (the object can never reach zero), so the per-object mint/consume
   ledger must flag it — on the non-null path only, like escaping-get. *)
let test_flags_weight_unbalanced () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-weight-split"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let cell = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              O.load ctx cell l;
              (if O.get l <> Heap.null then
                 let m = O.declare ctx in
                 O.copy ctx m (O.get l)
                 (* the split is never dropped: its weight strands *));
              O.retire ctx l );
        ])
  in
  checkb "weight-unbalanced flagged" true
    (has_class Absint.Weight_unbalanced r);
  checkb "weight imbalance is an error" true (errors_of r > 0)

(* The balanced sibling of the fixture above (split, then drop both
   sides) must stay ledger-clean: conservation is about matching, not
   about forbidding splits. *)
let test_balanced_split_clean () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-weight-balanced"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let cell = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              O.load ctx cell l;
              (if O.get l <> Heap.null then
                 let m = O.declare ctx in
                 O.copy ctx m (O.get l);
                 O.retire ctx m);
              O.retire ctx l );
        ])
  in
  checkb "balanced split not flagged" false
    (has_class Absint.Weight_unbalanced r);
  checki "balanced split fixture clean" 0 (errors_of r)

(* --- OPS bypass --- *)

let test_flags_lfrc_bypass () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-bypass"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        ignore ctx;
        [
          ( "op",
            fun () ->
              ignore (Lfrc_core.Lfrc.alloc env fixture_layout) );
        ])
  in
  checkb "bypass flagged" true (has_class Absint.Lfrc_bypass r)

(* --- the tier obligation --- *)

(* The same builder analyzed under both tier claims. The dcas itself is
   ownership-clean (all-null operands), so the *only* possible finding is
   the tier violation — under the Cas claim it must fire, under the
   default Dcas tier the report must be empty. This is the dynamic half
   of the tier contract: catalog entries cannot reach this state (a
   [Cas_pack] builder types against [OPS_CAS] and cannot name dcas), but
   hand-written analyses claiming a tier can lie, and the checker is what
   catches them. *)
let tier_fixture (module O : Lfrc_core.Ops_intf.OPS_DCAS) env =
  let ctx = O.make_ctx env in
  let anchor = O.declare ctx in
  O.alloc ctx fixture_layout anchor;
  let c0 = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
  let c1 = Heap.ptr_cell (Env.heap env) (O.get anchor) 1 in
  [
    ( "op",
      fun () ->
        ignore
          (O.dcas ctx c0 c1 ~old0:Heap.null ~old1:Heap.null ~new0:Heap.null
             ~new1:Heap.null) );
  ]

let test_flags_dcas_in_cas_tier () =
  let r =
    Checker.analyze_actions ~limits ~tier:Catalog.Cas ~name:"fixture-tier"
      tier_fixture
  in
  checkb "dcas-in-cas-tier flagged" true (has_class Absint.Dcas_in_cas_tier r);
  checkb "tier violation is an error" true (errors_of r > 0)

let test_dcas_clean_in_dcas_tier () =
  let r =
    Checker.analyze_actions ~limits ~tier:Catalog.Dcas
      ~name:"fixture-tier-ok" tier_fixture
  in
  checki "same builder clean under the dcas tier" 0 (errors_of r)

let test_catalog_tier_names () =
  let cas = Catalog.names ~tier:Catalog.Cas () in
  let dcas = Catalog.names ~tier:Catalog.Dcas () in
  checkb "sundell is cas-tier" true (List.mem "sundell" cas);
  checkb "treiber is cas-tier" true (List.mem "treiber" cas);
  checkb "snark is dcas-tier" true (List.mem "snark" dcas);
  checkb "sundell not in dcas tier" false (List.mem "sundell" dcas);
  checki "tiers partition the catalog"
    (List.length (Catalog.names ()))
    (List.length cas + List.length dcas)

(* --- the cross-thread interference pass --- *)

(* A plain write to a value cell of an already-published (setup-anchored)
   object races with a concurrent instance of itself; the plain read in
   the second action races with that write across actions. Both must
   surface as racy-plain-access. *)
let test_flags_racy_plain_access () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-racy-plain"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let vcell = Heap.val_cell (Env.heap env) (O.get anchor) 0 in
        [
          ("racy_write", fun () -> O.write_val ctx vcell 7);
          ("racy_read", fun () -> ignore (O.read_val ctx vcell));
        ])
  in
  checkb "racy-plain-access flagged" true
    (has_class Absint.Racy_plain_access r);
  (* both the write and the read sides are reported *)
  checki "both accesses flagged" 2
    (List.length
       (List.filter
          (fun c -> c = Absint.Racy_plain_access)
          (classes_of r)))

(* Pre-publication initialization of a path-allocated object is private:
   the publishing CAS orders it before every later acquire, so the same
   plain write must NOT be flagged. The cas_val sibling shows the
   sanctioned way to touch a published value cell. *)
let test_private_init_not_racy () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-private-init"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let heap = Env.heap env in
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let acell = Heap.ptr_cell heap (O.get anchor) 0 in
        let vcell = Heap.val_cell heap (O.get anchor) 0 in
        [
          ( "init_then_publish",
            fun () ->
              let l = O.declare ctx in
              O.alloc ctx fixture_layout l;
              (* plain init of the fresh object: private *)
              O.write_val ctx (Heap.val_cell heap (O.get l) 0) 1;
              (* publish it, handing over the count *)
              O.store_alloc ctx acell l;
              O.retire ctx l );
          ("synced_touch", fun () -> ignore (O.cas_val ctx vcell 0 1));
        ])
  in
  checkb "private init not flagged" false
    (has_class Absint.Racy_plain_access r);
  checki "fixture clean" 0 (errors_of r)

(* --- a correct fixture stays clean --- *)

let test_clean_fixture_passes () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-clean"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        let anchor = O.declare ctx in
        O.alloc ctx fixture_layout anchor;
        let cell = Heap.ptr_cell (Env.heap env) (O.get anchor) 0 in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              O.load ctx cell l;
              (if O.get l <> Heap.null then
                 let m = O.declare ctx in
                 O.copy ctx m (O.get l);
                 O.retire ctx m);
              O.retire ctx l );
        ])
  in
  checki "clean fixture has no errors" 0 (errors_of r)

(* --- the gate: every shipped structure passes --- *)

let test_shipped_structures_clean () =
  let report =
    Checker.analyze_all ~limits:{ Checker.max_paths = 150; max_decisions = 40 }
      ()
  in
  List.iter
    (fun (s : Report.structure_report) ->
      checki
        (Printf.sprintf "%s: no errors" s.Report.structure)
        0
        (errors_of s);
      (* every action explored at least one completed path *)
      List.iter
        (fun (a : Report.action_report) ->
          checkb
            (Printf.sprintf "%s/%s completed paths > 0" s.Report.structure
               a.Report.action)
            true (a.Report.completed > 0))
        s.Report.actions)
    report.Report.structures;
  checki "all seven structures analyzed" 7
    (List.length report.Report.structures)

(* --- plumbing: JSON validity-ish and structure selection --- *)

let test_structure_selection () =
  (match Checker.analyze_structure ~limits "treiber" with
  | Ok r -> checki "one structure" 1 (List.length r.Report.structures)
  | Error e -> Alcotest.fail e);
  match Checker.analyze_structure ~limits "no-such-thing" with
  | Ok _ -> Alcotest.fail "expected an error for unknown structure"
  | Error _ -> ()

let test_json_render () =
  let r =
    Checker.analyze_actions ~limits ~name:"fixture-leak-json"
      (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
        let ctx = O.make_ctx env in
        [
          ( "op",
            fun () ->
              let l = O.declare ctx in
              ignore (O.try_alloc ctx fixture_layout l) );
        ])
  in
  let t = { Report.structures = [ r ] } in
  (* Byte pin: no CLI run produces analyzer findings, so this is the one
     recorded document with finding records in it. *)
  let witness =
    {|"witness_decisions":"0","witness":["   declare x0",|}
    ^ {|"   branch[0] try_alloc 0/2","   try_alloc -> x0 (= #1) : true",|}
    ^ {|">> [completed]"]}|}
  in
  Alcotest.(check string)
    "json bytes"
    ({|{"report":"lfrc-analyze","structures":[{"structure":|}
    ^ {|"fixture-leak-json","actions":[{"action":"op","paths":2,|}
    ^ {|"completed":2,"infeasible":0,"cut":0,"truncated":false,|}
    ^ {|"findings":[{"class":"leak","severity":"error","message":|}
    ^ {|"local L0 still live at operation exit (never retired)",|}
    ^ {|"paths_hit":2,|} ^ witness
    ^ {|,{"class":"weight-unbalanced","severity":"error","message":|}
    ^ {|"object O0: 1 weight-bearing reference(s) minted on this path |}
    ^ {|but only 0 consumed — a split (copy) or acquisition without |}
    ^ {|its matching drop strands weight on the count","paths_hit":1,|}
    ^ witness ^ {|]}]}],"errors":2}|})
    (Lfrc_util.Json.to_string (Report.to_json t));
  (* the try_alloc fixture leaks on the success path *)
  checkb "leak in json fixture" true (has_class Absint.Leak r)

let () =
  Alcotest.run "analysis"
    [
      ( "defect-classes",
        [
          Alcotest.test_case "leak" `Quick test_flags_leak;
          Alcotest.test_case "double-destroy" `Quick test_flags_double_destroy;
          Alcotest.test_case "use-after-retire" `Quick
            test_flags_use_after_retire;
          Alcotest.test_case "escaping-get" `Quick test_flags_escaping_get;
          Alcotest.test_case "unowned-store" `Quick test_flags_unowned_store;
          Alcotest.test_case "borrow-across-flush" `Quick
            test_flags_borrow_across_flush;
          Alcotest.test_case "weight-unbalanced" `Quick
            test_flags_weight_unbalanced;
          Alcotest.test_case "lfrc-bypass" `Quick test_flags_lfrc_bypass;
          Alcotest.test_case "dcas-in-cas-tier" `Quick
            test_flags_dcas_in_cas_tier;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "dcas clean under dcas tier" `Quick
            test_dcas_clean_in_dcas_tier;
          Alcotest.test_case "catalog tier names" `Quick
            test_catalog_tier_names;
        ] );
      ( "interference",
        [
          Alcotest.test_case "racy plain access flagged" `Quick
            test_flags_racy_plain_access;
          Alcotest.test_case "private init stays clean" `Quick
            test_private_init_not_racy;
        ] );
      ( "clean",
        [
          Alcotest.test_case "clean fixture passes" `Quick
            test_clean_fixture_passes;
          Alcotest.test_case "owned borrow spans flush" `Quick
            test_borrow_with_live_owner_spans_flush;
          Alcotest.test_case "balanced split stays clean" `Quick
            test_balanced_split_clean;
          Alcotest.test_case "all shipped structures pass" `Quick
            test_shipped_structures_clean;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "structure selection" `Quick
            test_structure_selection;
          Alcotest.test_case "json render" `Quick test_json_render;
        ] );
    ]
