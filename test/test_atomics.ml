(* Tests for the DCAS substrates: semantics of each implementation, the
   observer seam and the counts it feeds, the software MCAS (including
   model-checked agreement with the atomic reference) and the documented
   MCAS/LFRC incompatibility. *)

module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module Mcas = Lfrc_atomics.Mcas
module Metrics = Lfrc_obs.Metrics
module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let impls = [ Dcas.Atomic_step; Dcas.Striped_lock; Dcas.Software_mcas ]

let for_each_impl f =
  List.iter
    (fun impl ->
      let d = Dcas.create impl in
      f (Dcas.impl_name d) d)
    impls

(* --- Semantics shared by every substrate --- *)

let test_read_write () =
  for_each_impl (fun name d ->
      let c = Cell.make 5 in
      checki (name ^ " read") 5 (Dcas.read d c);
      Dcas.write d c 9;
      checki (name ^ " wrote") 9 (Dcas.read d c))

let test_cas_semantics () =
  for_each_impl (fun name d ->
      let c = Cell.make 1 in
      checkb (name ^ " cas hit") true (Dcas.cas d c 1 2);
      checkb (name ^ " cas miss") false (Dcas.cas d c 1 3);
      checki (name ^ " value") 2 (Dcas.read d c))

let test_fetch_add () =
  for_each_impl (fun name d ->
      let c = Cell.make 10 in
      checki (name ^ " prev") 10 (Dcas.fetch_add d c 3);
      checki (name ^ " now") 13 (Dcas.read d c))

let test_dcas_success () =
  for_each_impl (fun name d ->
      let c0 = Cell.make 1 and c1 = Cell.make 2 in
      checkb (name ^ " dcas ok") true
        (Dcas.dcas d c0 c1 ~old0:1 ~old1:2 ~new0:10 ~new1:20);
      checki (name ^ " c0") 10 (Dcas.read d c0);
      checki (name ^ " c1") 20 (Dcas.read d c1))

let test_dcas_first_mismatch () =
  for_each_impl (fun name d ->
      let c0 = Cell.make 1 and c1 = Cell.make 2 in
      checkb (name ^ " dcas fails") false
        (Dcas.dcas d c0 c1 ~old0:99 ~old1:2 ~new0:10 ~new1:20);
      checki (name ^ " c0 untouched") 1 (Dcas.read d c0);
      checki (name ^ " c1 untouched") 2 (Dcas.read d c1))

let test_dcas_second_mismatch () =
  for_each_impl (fun name d ->
      let c0 = Cell.make 1 and c1 = Cell.make 2 in
      checkb (name ^ " dcas fails") false
        (Dcas.dcas d c0 c1 ~old0:1 ~old1:99 ~new0:10 ~new1:20);
      checki (name ^ " c0 untouched") 1 (Dcas.read d c0);
      checki (name ^ " c1 untouched") 2 (Dcas.read d c1))

let test_dcas_same_values () =
  (* The validating no-op DCAS pattern used by Snark_fixed's empty test. *)
  for_each_impl (fun name d ->
      let c0 = Cell.make 1 and c1 = Cell.make 2 in
      checkb (name ^ " no-op dcas") true
        (Dcas.dcas d c0 c1 ~old0:1 ~old1:2 ~new0:1 ~new1:2);
      checki (name ^ " unchanged") 1 (Dcas.read d c0))

let test_dcas_negative_values () =
  for_each_impl (fun name d ->
      let c0 = Cell.make (-5) and c1 = Cell.make (-6) in
      checkb (name ^ " negatives") true
        (Dcas.dcas d c0 c1 ~old0:(-5) ~old1:(-6) ~new0:(-50) ~new1:(-60));
      checki (name ^ " c1") (-60) (Dcas.read d c1))

let test_counters () =
  let metrics = Metrics.create () in
  let d =
    Lfrc_core.Env.dcas
      (Lfrc_core.Env.create ~dcas_impl:Dcas.Atomic_step ~metrics
         (Lfrc_simmem.Heap.create ()))
  in
  let c0 = Cell.make 0 and c1 = Cell.make 0 in
  ignore (Dcas.read d c0);
  Dcas.write d c0 1;
  ignore (Dcas.cas d c0 1 2);
  ignore (Dcas.cas d c0 1 2);
  (* fails *)
  ignore (Dcas.dcas d c0 c1 ~old0:2 ~old1:0 ~new0:3 ~new1:1);
  ignore (Dcas.dcas d c0 c1 ~old0:2 ~old1:0 ~new0:3 ~new1:1);
  (* fails *)
  let count name = Metrics.count metrics (Metrics.key name) in
  checki "reads" 1 (count "dcas.reads");
  checki "writes" 1 (count "dcas.writes");
  checki "cas attempts" 2 (count "dcas.cas_attempts");
  checki "cas failures" 1 (count "dcas.cas_failures");
  checki "dcas attempts" 2 (count "dcas.dcas_attempts");
  checki "dcas failures" 1 (count "dcas.dcas_failures")

(* --- The observer seam --- *)

(* With no observer, a step outside the simulator allocates nothing on
   any substrate: the seam costs one branch, and software MCAS reuses its
   pooled descriptors in place. *)
let test_unobserved_steps_allocate_nothing () =
  for_each_impl (fun name d ->
      let c0 = Cell.make 0 and c1 = Cell.make 0 in
      let n = 10_000 in
      let words op step =
        let before = Gc.minor_words () in
        for _ = 1 to n do
          step ()
        done;
        let per_op = (Gc.minor_words () -. before) /. Float.of_int n in
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s %s words/op" name op)
          0. per_op
      in
      words "read" (fun () -> ignore (Dcas.read d c0));
      words "write" (fun () -> Dcas.write d c0 0);
      words "winning cas" (fun () -> ignore (Dcas.cas d c0 0 0));
      words "losing cas" (fun () -> ignore (Dcas.cas d c0 1 2));
      words "winning dcas" (fun () ->
          ignore (Dcas.dcas d c0 c1 ~old0:0 ~old1:0 ~new0:0 ~new1:0));
      words "losing dcas" (fun () ->
          ignore (Dcas.dcas d c0 c1 ~old0:0 ~old1:1 ~new0:2 ~new1:2));
      words "fetch_add" (fun () -> ignore (Dcas.fetch_add d c0 0)))

(* An observer that logs every step it sees; [take ()] drains the log. *)
let recording d =
  let log = ref [] in
  let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  Dcas.set_observer d
    (Some
       {
         Dcas.on_read = (fun c v -> note "read %d %d" (Cell.id c) v);
         on_write = (fun c v -> note "write %d %d" (Cell.id c) v);
         on_rmw = (fun c -> note "rmw %d" (Cell.id c));
         on_cas =
           (fun c ~old_v ~new_v ~ok ->
             note "cas %d %d %d %b" (Cell.id c) old_v new_v ok);
         on_dcas =
           (fun c0 c1 ~old0 ~old1 ~new0 ~new1 ~ok ->
             note "dcas %d %d %d %d %d %d %b" (Cell.id c0) (Cell.id c1) old0
               old1 new0 new1 ok);
         on_spurious_cas = (fun () -> note "spurious-cas");
         on_spurious_dcas = (fun () -> note "spurious-dcas");
       });
  fun () ->
    let l = List.rev !log in
    log := [];
    l

let checkl = Alcotest.(check (list string))

let test_observer_sees_each_step_once () =
  for_each_impl (fun name d ->
      let take = recording d in
      let c0 = Cell.make 1 and c1 = Cell.make 2 in
      let i0 = Cell.id c0 and i1 = Cell.id c1 in
      ignore (Dcas.read d c0);
      Dcas.write d c0 5;
      ignore (Dcas.fetch_add d c1 3);
      ignore (Dcas.cas d c0 5 6);
      ignore (Dcas.cas d c0 5 7);
      ignore (Dcas.dcas d c0 c1 ~old0:6 ~old1:5 ~new0:8 ~new1:9);
      ignore (Dcas.dcas d c0 c1 ~old0:6 ~old1:9 ~new0:0 ~new1:0);
      checkl (name ^ " steps")
        [
          Printf.sprintf "read %d 1" i0;
          Printf.sprintf "write %d 5" i0;
          Printf.sprintf "rmw %d" i1;
          Printf.sprintf "cas %d 5 6 true" i0;
          Printf.sprintf "cas %d 5 7 false" i0;
          Printf.sprintf "dcas %d %d 6 5 8 9 true" i0 i1;
          Printf.sprintf "dcas %d %d 6 9 0 0 false" i0 i1;
        ]
        (take ());
      (* Injected failures are their own steps, never a cas/dcas step. *)
      let always () = true in
      Dcas.set_injector d
        (Some { Dcas.inject_cas = always; inject_dcas = always });
      checkb (name ^ " spurious cas fails") false (Dcas.cas d c0 8 1);
      checkb (name ^ " spurious dcas fails") false
        (Dcas.dcas d c0 c1 ~old0:8 ~old1:9 ~new0:1 ~new1:1);
      checkl (name ^ " spurious steps") [ "spurious-cas"; "spurious-dcas" ]
        (take ());
      checki (name ^ " nothing written") 8 (Cell.get c0))

(* Software MCAS retries its inner CAS when a competing step lands between
   its read and its install; the observer still sees one step. The script
   parks thread 1's fetch-add (or write) just before its install, runs
   thread 2's whole step, then lets thread 1 retry. *)
let test_observer_one_step_per_mcas_retry () =
  let script = [| 0; 1; 1; 1; 2; 2; 2; 2 |] in
  let run first second =
    let d = Dcas.create Dcas.Software_mcas in
    let take = recording d in
    let c = Cell.make 0 in
    ignore
      (Sched.run ~max_steps:1_000
         (Strategy.Scripted { prefix = script; tail_seed = None })
         (fun () ->
           let a = Sched.spawn (fun () -> first d c) in
           let b = Sched.spawn (fun () -> second d c) in
           Sched.join [ a; b ]));
    (Cell.id c, Cell.get c, take ())
  in
  let added = ref (-1) in
  let id, v, steps =
    run (fun d c -> added := Dcas.fetch_add d c 1) (fun d c -> Dcas.write d c 5)
  in
  checki "fetch-add retried over the write" 5 !added;
  checki "fetch-add landed last" 6 v;
  checkl "one step each"
    [ Printf.sprintf "write %d 5" id; Printf.sprintf "rmw %d" id ]
    steps;
  let id, v, steps =
    run (fun d c -> Dcas.write d c 7) (fun d c -> added := Dcas.fetch_add d c 1)
  in
  checki "fetch-add ran first" 0 !added;
  checki "write retried over the fetch-add" 7 v;
  checkl "one step each"
    [ Printf.sprintf "rmw %d" id; Printf.sprintf "write %d 7" id ]
    steps

(* --- MCAS specifics --- *)

let test_mcas_rejects_same_cell () =
  let c = Cell.make 0 in
  checkb "identical cells rejected" true
    (match Mcas.dcas c c 0 0 1 1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_mcas_sequential_stress () =
  let c0 = Cell.make 0 and c1 = Cell.make 0 in
  for i = 0 to 999 do
    checkb "increments" true (Mcas.dcas c0 c1 i i (i + 1) (i + 1))
  done;
  checki "c0" 1000 (Mcas.read c0);
  checki "c1" 1000 (Mcas.read c1)

let test_mcas_concurrent_agreement () =
  (* Simulated threads DCAS-increment two cells; totals must agree with
     the number of successes, under many seeds. *)
  for seed = 0 to 19 do
    let body () =
      let c0 = Cell.make 0 and c1 = Cell.make 0 in
      let successes = Atomic.make 0 in
      let tids =
        List.init 3 (fun _ ->
            Sched.spawn (fun () ->
                for _ = 1 to 50 do
                  let rec attempt () =
                    let v0 = Mcas.read c0 in
                    let v1 = Mcas.read c1 in
                    if Mcas.dcas c0 c1 v0 v1 (v0 + 1) (v1 + 1) then
                      Atomic.incr successes
                    else attempt ()
                  in
                  attempt ()
                done))
      in
      Sched.join tids;
      assert (Mcas.read c0 = 150);
      assert (Mcas.read c1 = 150);
      assert (Atomic.get successes = 150)
    in
    ignore (Sched.run (Strategy.Random seed) body)
  done

let test_mcas_model_checked () =
  (* Exhaustively explore two threads racing one MCAS each on overlapping
     cells; afterwards the cells must reflect a serialization of the
     successful operations. *)
  let cells = ref None in
  let results = Array.make 2 false in
  let body () =
    let c0 = Cell.make 0 and c1 = Cell.make 0 and c2 = Cell.make 0 in
    cells := Some (c0, c1, c2);
    ignore
      (Sched.spawn (fun () -> results.(0) <- Mcas.dcas c0 c1 0 0 1 1));
    ignore
      (Sched.spawn (fun () -> results.(1) <- Mcas.dcas c1 c2 0 0 2 2))
  in
  let check () =
    let c0, c1, c2 = Option.get !cells in
    let v0 = Mcas.read c0 and v1 = Mcas.read c1 and v2 = Mcas.read c2 in
    let ok =
      match (results.(0), results.(1)) with
      | true, true -> v0 = 1 && v1 = 2 && v2 = 2 (* op1 then op2 *)
      | true, false -> v0 = 1 && v1 = 1 && v2 = 0
      | false, true -> v0 = 0 && v1 = 2 && v2 = 2
      | false, false -> false (* at least one must succeed *)
    in
    if not ok then
      failwith
        (Printf.sprintf "inconsistent: r=(%b,%b) cells=(%d,%d,%d)"
           results.(0) results.(1) v0 v1 v2)
  in
  match
    Lfrc_sched.Explore.check ~max_schedules:50_000 ~body ~check ()
  with
  | Lfrc_sched.Explore.Ok { schedules } ->
      checkb "explored many schedules" true (schedules > 100)
  | Lfrc_sched.Explore.Budget_exhausted { schedules } ->
      checkb "no violation within budget" true (schedules = 50_000)
  | Lfrc_sched.Explore.Violation { exn; _ } ->
      Alcotest.fail ("MCAS violation: " ^ Printexc.to_string exn)

(* A helper delayed past the end of the operation it helped must not
   decide the descriptor's next operation. Thread 1 is the only writer,
   so both its DCASes must win; thread 2 only reads, and helps whatever
   descriptor it meets. A helper that checks the sequence number and the
   status in two reads can, once preempted between them, fail (or win)
   the owner's second DCAS on the strength of the first. *)
let test_mcas_stale_helper () =
  let cells = ref None in
  let results = Array.make 2 false in
  let body () =
    let a = Cell.make 0 and b = Cell.make 0 in
    cells := Some (a, b);
    results.(0) <- false;
    results.(1) <- false;
    ignore
      (Sched.spawn (fun () ->
           results.(0) <- Mcas.dcas a b 0 0 1 1;
           results.(1) <- Mcas.dcas a b 1 1 2 2));
    ignore
      (Sched.spawn (fun () ->
           ignore (Mcas.read a);
           ignore (Mcas.read b)))
  in
  let check () =
    let a, b = Option.get !cells in
    let va = Mcas.read a and vb = Mcas.read b in
    if not (results.(0) && results.(1) && va = 2 && vb = 2) then
      failwith
        (Printf.sprintf "stale helper: r=(%b,%b) cells=(%d,%d)" results.(0)
           results.(1) va vb)
  in
  match Lfrc_sched.Explore.check ~max_preemptions:3 ~body ~check () with
  | Lfrc_sched.Explore.Ok { schedules } ->
      checkb "explored many schedules" true (schedules > 100)
  | Lfrc_sched.Explore.Budget_exhausted { schedules } ->
      Alcotest.failf "budget exhausted after %d schedules" schedules
  | Lfrc_sched.Explore.Violation { exn; schedule; _ } ->
      Alcotest.failf "MCAS violation after a %d-step schedule: %s"
        (Array.length schedule) (Printexc.to_string exn)

let test_mcas_frozen_install_corrupts () =
  (* The documented incompatibility (DESIGN.md, Mcas mli): installing a
     descriptor writes to the target cell, so MCAS on freed memory is
     corruption — unlike a failing hardware DCAS. This is why LFRC runs
     on the atomic/striped substrates only. *)
  let heap = Lfrc_simmem.Heap.create ~name:"mcas-frozen" () in
  let layout = Lfrc_simmem.Layout.make ~name:"n" ~n_ptrs:0 ~n_vals:1 in
  let p = Lfrc_simmem.Heap.alloc heap layout in
  let rc = Lfrc_simmem.Heap.rc_cell heap p in
  let other = Cell.make 7 in
  Lfrc_simmem.Heap.free heap p;
  let poison = Lfrc_simmem.Config.poison in
  checkb "install into frozen cell raises" true
    (match Mcas.dcas other rc 7 poison 7 poison with
    | _ -> false
    | exception Cell.Corruption _ -> true)

(* A [Striped_lock] step whose cell op raises (a write into freed memory)
   releases its stripes before the exception leaves: the next step on the
   same cells completes. A stripe left locked would make that step raise
   [Sys_error] instead, since OCaml's mutexes check for a relock by their
   holder. *)
let test_striped_lock_raise_releases () =
  let d = Dcas.create Dcas.Striped_lock in
  let poison = Lfrc_simmem.Config.poison in
  let freed = Cell.make 0 and live = Cell.make 1 in
  let corrupts name f =
    Cell.freeze freed;
    checkb (name ^ " into freed memory raises") true
      (match f () with _ -> false | exception Cell.Corruption _ -> true);
    Cell.thaw freed 0
  in
  corrupts "write" (fun () -> Dcas.write d freed 5);
  corrupts "cas" (fun () -> ignore (Dcas.cas d freed poison 5));
  corrupts "fetch-add" (fun () -> ignore (Dcas.fetch_add d freed 1));
  corrupts "dcas" (fun () ->
      ignore (Dcas.dcas d freed live ~old0:poison ~old1:1 ~new0:5 ~new1:2));
  Dcas.write d freed 4;
  checkb "cas completes" true (Dcas.cas d freed 4 5);
  checki "fetch-add completes" 5 (Dcas.fetch_add d freed 1);
  checkb "dcas completes" true
    (Dcas.dcas d freed live ~old0:6 ~old1:1 ~new0:7 ~new1:2);
  checki "both words swapped" 9 (Dcas.read d freed + Dcas.read d live)

let test_striped_lock_parallel () =
  (* Real domains hammer one striped-lock DCAS pair; the two cells move
     in lock-step, proving two-word atomicity under true parallelism. *)
  let d = Dcas.create Dcas.Striped_lock in
  let c0 = Cell.make 0 and c1 = Cell.make 0 in
  let worker () =
    for _ = 1 to 5_000 do
      let rec attempt () =
        let v0 = Dcas.read d c0 in
        let v1 = Dcas.read d c1 in
        if v0 = v1 then begin
          if not (Dcas.dcas d c0 c1 ~old0:v0 ~old1:v1 ~new0:(v0 + 1) ~new1:(v1 + 1))
          then attempt ()
        end
        else attempt ()
      in
      attempt ()
    done
  in
  let domains = List.init 3 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  checki "c0 total" 15_000 (Dcas.read d c0);
  checki "cells in lock-step" (Dcas.read d c0) (Dcas.read d c1)

let test_mcas_parallel () =
  (* Same, for the lock-free software MCAS on real domains. *)
  let c0 = Cell.make 0 and c1 = Cell.make 0 in
  let worker () =
    for _ = 1 to 3_000 do
      let rec attempt () =
        let v0 = Mcas.read c0 in
        let v1 = Mcas.read c1 in
        if v0 <> v1 || not (Mcas.dcas c0 c1 v0 v1 (v0 + 1) (v1 + 1)) then
          attempt ()
      in
      attempt ()
    done
  in
  let domains = List.init 3 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  checki "c0 total" 9_000 (Mcas.read c0);
  checki "in lock-step" (Mcas.read c0) (Mcas.read c1)

(* --- qcheck: substrates against a two-cell reference model --- *)

type step_op =
  | Qwrite of int * int (* which cell, value *)
  | Qcas of int * int * int
  | Qdcas of int * int * int * int
  | Qadd of int * int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun c v -> Qwrite (c, v)) (int_bound 1) (int_bound 10);
        map3 (fun c o n -> Qcas (c, o, n)) (int_bound 1) (int_bound 10)
          (int_bound 10);
        map2
          (fun (o0, o1) (n0, n1) -> Qdcas (o0, o1, n0, n1))
          (pair (int_bound 10) (int_bound 10))
          (pair (int_bound 10) (int_bound 10));
        map2 (fun c d -> Qadd (c, d)) (int_bound 1) (int_range (-5) 5);
      ])

let prop_substrate_matches_model impl =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "%s agrees with the reference model"
         (Dcas.impl_name (Dcas.create impl)))
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) op_gen)
    (fun ops ->
      let d = Dcas.create impl in
      let c0 = Cell.make 0 and c1 = Cell.make 0 in
      let m = [| 0; 0 |] in
      let ok = ref true in
      let cell i = if i = 0 then c0 else c1 in
      List.iter
        (fun op ->
          match op with
          | Qwrite (c, v) ->
              Dcas.write d (cell c) v;
              m.(c) <- v
          | Qcas (c, o, n) ->
              let got = Dcas.cas d (cell c) o n in
              let want = m.(c) = o in
              if want then m.(c) <- n;
              if got <> want then ok := false
          | Qdcas (o0, o1, n0, n1) ->
              let got = Dcas.dcas d c0 c1 ~old0:o0 ~old1:o1 ~new0:n0 ~new1:n1 in
              let want = m.(0) = o0 && m.(1) = o1 in
              if want then begin
                m.(0) <- n0;
                m.(1) <- n1
              end;
              if got <> want then ok := false
          | Qadd (c, delta) ->
              let got = Dcas.fetch_add d (cell c) delta in
              if got <> m.(c) then ok := false;
              m.(c) <- m.(c) + delta)
        ops;
      !ok && Dcas.read d c0 = m.(0) && Dcas.read d c1 = m.(1))

let () =
  Alcotest.run "atomics"
    [
      ( "semantics",
        [
          Alcotest.test_case "read/write" `Quick test_read_write;
          Alcotest.test_case "cas" `Quick test_cas_semantics;
          Alcotest.test_case "fetch-add" `Quick test_fetch_add;
          Alcotest.test_case "dcas success" `Quick test_dcas_success;
          Alcotest.test_case "dcas first mismatch" `Quick test_dcas_first_mismatch;
          Alcotest.test_case "dcas second mismatch" `Quick test_dcas_second_mismatch;
          Alcotest.test_case "no-op dcas" `Quick test_dcas_same_values;
          Alcotest.test_case "negative values" `Quick test_dcas_negative_values;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "striped lock releases on raise" `Quick
            test_striped_lock_raise_releases;
        ] );
      ( "observer",
        [
          Alcotest.test_case "unobserved steps allocate nothing" `Quick
            test_unobserved_steps_allocate_nothing;
          Alcotest.test_case "each step seen once" `Quick
            test_observer_sees_each_step_once;
          Alcotest.test_case "mcas retries are one step" `Quick
            test_observer_one_step_per_mcas_retry;
        ] );
      ( "mcas",
        [
          Alcotest.test_case "rejects same cell" `Quick test_mcas_rejects_same_cell;
          Alcotest.test_case "sequential stress" `Quick test_mcas_sequential_stress;
          Alcotest.test_case "concurrent agreement" `Quick test_mcas_concurrent_agreement;
          Alcotest.test_case "model checked" `Slow test_mcas_model_checked;
          Alcotest.test_case "stale helper decides nothing" `Quick
            test_mcas_stale_helper;
          Alcotest.test_case "frozen install corrupts" `Quick test_mcas_frozen_install_corrupts;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "striped lock domains" `Slow test_striped_lock_parallel;
          Alcotest.test_case "mcas domains" `Slow test_mcas_parallel;
        ] );
      ( "properties",
        List.map
          (fun impl -> QCheck_alcotest.to_alcotest (prop_substrate_matches_model impl))
          impls );
    ]
