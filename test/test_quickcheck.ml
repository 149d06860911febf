(* Property-based differential testing of every catalog structure against
   its sequential model, in all four rc modes.

   Each case draws a seeded operation sequence from Workload.opmix (the
   same generator the benchmarks use), maps it onto one structure family
   (stack / queue / deque / set), and replays it single-threaded against
   the concurrent implementation and the functional model side by side —
   once eagerly, once with deferred-rc coalescing at the harness epoch,
   once with a tiny epoch that forces a flush every few operations, and
   once on the wait-free weighted fast path.
   Any result mismatch, post-destroy leak, or unexpected raise fails the
   property; the failing sequence is then shrunk greedily (drop one
   operation at a time while the failure persists) before being reported,
   so the alcotest message carries a near-minimal reproducer.

   LFRC_QC_FULL=1 widens the sweep (more seeds, longer sequences) for
   nightly runs. *)

module Heap = Lfrc_simmem.Heap
module Env = Lfrc_core.Env
module Report = Lfrc_simmem.Report
module Spec = Lfrc_structures.Spec
module Opmix = Lfrc_workload.Opmix
module Scenario = Lfrc_harness.Scenario

module Stack = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)
module Queue_ = Lfrc_structures.Msqueue.Make (Lfrc_core.Lfrc_ops)
module Snark = Lfrc_structures.Snark.Make (Lfrc_core.Lfrc_ops)
module Snark_fixed = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)
module Sundell = Lfrc_structures.Sundell_deque.Make (Lfrc_core.Lfrc_ops)
module Dset = Lfrc_structures.Dlist_set.Make (Lfrc_core.Lfrc_ops)
module Skipset = Lfrc_structures.Skiplist.As_set (Lfrc_core.Lfrc_ops)
module IntSet = Set.Make (Int)

let full = Sys.getenv_opt "LFRC_QC_FULL" = Some "1"
let seeds = if full then 50 else 10
let ops_len = if full then 400 else 120

type op = { kind : Opmix.kind; v : int }

let pp_op ppf { kind; v } = Format.fprintf ppf "%a %d" Opmix.pp_kind kind v

(* Values repeat (mod 24) so the set families exercise duplicate inserts
   and hits as well as misses. *)
let gen_ops ~seed n =
  let kinds = Opmix.stream Opmix.balanced_deque ~seed ~thread:0 n in
  Array.to_list
    (Array.mapi (fun i k -> { kind = k; v = ((seed * 37) + i) mod 24 }) kinds)

(* Each family runner replays one op list against implementation and
   model and returns [Error description] on the first divergence. The
   whole lifecycle runs per call so a shrunk candidate is a fresh
   deterministic execution. *)

let with_run name rc_mode f =
  let heap = Heap.create ~name () in
  let env =
    Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step
      ~rc_mode heap
  in
  match f env with
  | Error _ as e -> e
  | Ok () -> (
      match Report.assert_no_leaks heap with
      | () -> Ok ()
      | exception e -> Error ("post-destroy leak: " ^ Printexc.to_string e))
  | exception e -> Error ("raised: " ^ Printexc.to_string e)

let check i what got want err =
  if got <> want && !err = None then
    err :=
      Some
        (Printf.sprintf "op %d: %s returned %s, model says %s" i what
           (match got with Some v -> string_of_int v | None -> "empty")
           (match want with Some v -> string_of_int v | None -> "empty"))

let run_stack ~rc_mode ops =
  with_run "qc-stack" rc_mode @@ fun env ->
  let t = Stack.create env in
  let h = Stack.register t in
  let model = ref Spec.Stack.empty in
  let err = ref None in
  List.iteri
    (fun i { kind; v } ->
      if !err = None then
        match kind with
        | Opmix.Push_left | Opmix.Push_right ->
            Stack.push h v;
            model := Spec.Stack.push v !model
        | Opmix.Pop_left | Opmix.Pop_right ->
            let want =
              match Spec.Stack.pop !model with
              | None -> None
              | Some (v, m) ->
                  model := m;
                  Some v
            in
            check i "pop" (Stack.pop h) want err)
    ops;
  Stack.unregister h;
  Stack.destroy t;
  match !err with None -> Ok () | Some e -> Error e

let run_queue ~rc_mode ops =
  with_run "qc-queue" rc_mode @@ fun env ->
  let t = Queue_.create env in
  let h = Queue_.register t in
  let model = ref Spec.Queue.empty in
  let err = ref None in
  List.iteri
    (fun i { kind; v } ->
      if !err = None then
        match kind with
        | Opmix.Push_left | Opmix.Push_right ->
            Queue_.enqueue h v;
            model := Spec.Queue.enqueue v !model
        | Opmix.Pop_left | Opmix.Pop_right ->
            let want =
              match Spec.Queue.dequeue !model with
              | None -> None
              | Some (v, m) ->
                  model := m;
                  Some v
            in
            check i "dequeue" (Queue_.dequeue h) want err)
    ops;
  Queue_.unregister h;
  Queue_.destroy t;
  match !err with None -> Ok () | Some e -> Error e

let run_deque (module D : Lfrc_structures.Container_intf.DEQUE) name ~rc_mode ops
    =
  with_run name rc_mode @@ fun env ->
  let t = D.create env in
  let h = D.register t in
  let model = ref Spec.Deque.empty in
  let err = ref None in
  List.iteri
    (fun i { kind; v } ->
      if !err = None then
        match kind with
        | Opmix.Push_left ->
            D.push_left h v;
            model := Spec.Deque.push_left v !model
        | Opmix.Push_right ->
            D.push_right h v;
            model := Spec.Deque.push_right v !model
        | Opmix.Pop_left ->
            let want =
              match Spec.Deque.pop_left !model with
              | None -> None
              | Some (v, m) ->
                  model := m;
                  Some v
            in
            check i "pop_left" (D.pop_left h) want err
        | Opmix.Pop_right ->
            let want =
              match Spec.Deque.pop_right !model with
              | None -> None
              | Some (v, m) ->
                  model := m;
                  Some v
            in
            check i "pop_right" (D.pop_right h) want err)
    ops;
  D.unregister h;
  D.destroy t;
  match !err with None -> Ok () | Some e -> Error e

(* Sets have no Structures.Spec model; the functional oracle is
   Set.Make(Int), as in test_extensions. The four kinds map to insert /
   contains / remove / contains so membership answers are checked on both
   the hit and miss sides; the final to_list must equal the model's
   sorted elements. *)
let run_set (module S : Lfrc_structures.Container_intf.SET) name ~rc_mode ops
    =
  with_run name rc_mode @@ fun env ->
  let t = S.create env in
  let h = S.register t in
  let model = ref IntSet.empty in
  let err = ref None in
  let checkb i what got want =
    if got <> want && !err = None then
      err :=
        Some
          (Printf.sprintf "op %d: %s returned %b, model says %b" i what got
             want)
  in
  List.iteri
    (fun i { kind; v } ->
      if !err = None then
        match kind with
        | Opmix.Push_left ->
            let want = not (IntSet.mem v !model) in
            model := IntSet.add v !model;
            checkb i (Printf.sprintf "insert %d" v) (S.insert h v) want
        | Opmix.Pop_left ->
            let want = IntSet.mem v !model in
            model := IntSet.remove v !model;
            checkb i (Printf.sprintf "remove %d" v) (S.remove h v) want
        | Opmix.Push_right | Opmix.Pop_right ->
            checkb i
              (Printf.sprintf "contains %d" v)
              (S.contains h v) (IntSet.mem v !model))
    ops;
  if !err = None then begin
    let got = S.to_list h and want = IntSet.elements !model in
    if got <> want then
      err :=
        Some
          (Printf.sprintf "final to_list [%s], model [%s]"
             (String.concat ";" (List.map string_of_int got))
             (String.concat ";" (List.map string_of_int want)))
  end;
  S.unregister h;
  S.destroy t;
  match !err with None -> Ok () | Some e -> Error e

let structures :
    (string * (rc_mode:Env.rc_mode -> op list -> (unit, string) result)) list =
  [
    ("treiber", run_stack);
    ("msqueue", run_queue);
    ("snark", run_deque (module Snark) "qc-snark");
    ("snark-fixed", run_deque (module Snark_fixed) "qc-snark-fixed");
    ("sundell", run_deque (module Sundell) "qc-sundell");
    ("dlist-set", run_set (module Dset) "qc-dlist-set");
    ("skiplist", run_set (module Skipset) "qc-skiplist");
  ]

(* Runs are deterministic, so a greedy shrink is sound: keep dropping the
   first droppable operation until no single removal still fails. O(n^2)
   executions, but only on a failing sequence. *)
let shrink run ops =
  let rec drop_one ops i =
    if i >= List.length ops then None
    else
      let cand = List.filteri (fun j _ -> j <> i) ops in
      match run cand with Error _ -> Some cand | Ok () -> drop_one ops (i + 1)
  in
  let rec fix ops =
    match drop_one ops 0 with Some cand -> fix cand | None -> ops
  in
  fix ops

let modes =
  [
    ("eager", Env.Eager);
    ("deferred", Env.Deferred_rc { epoch = Scenario.deferred_rc_epoch });
    (* A flush every few parks: short sequences still cross many epoch
       boundaries, so flush-time frees interleave with live operations. *)
    ("deferred-tiny", Env.Deferred_rc { epoch = 4 });
    (* The weighted fast path: splits, borrows and exhaustion refills
       must be observationally identical to the other modes. *)
    ("wait-free", Env.Wait_free { weight = Scenario.wait_free_weight });
  ]

let test_structure (name, runner) () =
  List.iter
    (fun (mode, rc_mode) ->
      for seed = 0 to seeds - 1 do
        let ops = gen_ops ~seed ops_len in
        match runner ~rc_mode ops with
        | Ok () -> ()
        | Error first ->
            let run ops =
              match runner ~rc_mode ops with
              | (Ok () | Error _) as r -> r
            in
            let small = shrink run ops in
            let why =
              match run small with Error e -> e | Ok () -> first
            in
            Alcotest.failf
              "%s/%s seed %d diverges: %s@.shrunk to %d ops: @[%a@]" name
              mode seed why (List.length small)
              (Format.pp_print_list ~pp_sep:(fun p () ->
                   Format.fprintf p ";@ ")
                 pp_op)
              small
      done)
    modes

(* Oracle sanity: a deliberately wrong pairing (stack implementation vs
   queue model) must fail and shrink to a near-minimal sequence. *)
let test_shrinker_catches_and_shrinks () =
  let broken ~rc_mode:_ ops =
    (* Treiber against the FIFO model: diverges as soon as two pushes
       precede a pop. *)
    let t = ref Spec.Queue.empty and s = ref Spec.Stack.empty in
    let err = ref None in
    List.iteri
      (fun i { kind; v } ->
        if !err = None then
          match kind with
          | Opmix.Push_left | Opmix.Push_right ->
              t := Spec.Queue.enqueue v !t;
              s := Spec.Stack.push v !s
          | Opmix.Pop_left | Opmix.Pop_right ->
              let got =
                match Spec.Stack.pop !s with
                | None -> None
                | Some (v, s') ->
                    s := s';
                    Some v
              in
              let want =
                match Spec.Queue.dequeue !t with
                | None -> None
                | Some (v, t') ->
                    t := t';
                    Some v
              in
              if got <> want then
                err := Some (Printf.sprintf "op %d: lifo/fifo divergence" i))
      ops;
    match !err with None -> Ok () | Some e -> Error e
  in
  let rec find_failing seed =
    if seed > 200 then Alcotest.fail "no failing sequence found"
    else
      let ops = gen_ops ~seed 60 in
      match broken ~rc_mode:Env.Eager ops with
      | Error _ -> ops
      | Ok () -> find_failing (seed + 1)
  in
  let ops = find_failing 0 in
  let small = shrink (broken ~rc_mode:Env.Eager) ops in
  (match broken ~rc_mode:Env.Eager small with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "shrunk sequence no longer fails");
  (* Minimal divergence is push;push;pop — greedy must get there. *)
  Alcotest.(check int) "shrinks to the minimal case" 3 (List.length small)

let () =
  Alcotest.run "quickcheck-differential"
    (List.map
       (fun (name, runner) ->
         ( name,
           [
             Alcotest.test_case "4 rc modes vs model" `Slow
               (test_structure (name, runner));
           ] ))
       structures
    @ [
        ( "shrinker",
          [
            Alcotest.test_case "catches and minimizes" `Quick
              test_shrinker_catches_and_shrinks;
          ] );
      ])
