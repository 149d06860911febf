(* Tests for the deterministic scheduler, strategies, traces and the
   exhaustive explorer. *)

module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy
module Trace = Lfrc_sched.Trace
module Explore = Lfrc_sched.Explore
module Limits = Lfrc_sched.Limits

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_runs_to_completion () =
  let hits = ref 0 in
  let o =
    Sched.run Strategy.Round_robin (fun () ->
        for _ = 1 to 5 do
          Sched.point ();
          incr hits
        done)
  in
  checki "all iterations ran" 5 !hits;
  checkb "steps counted" true (o.Sched.steps > 0)

let test_spawn_runs_all () =
  let done_ = Array.make 4 false in
  ignore
    (Sched.run (Strategy.Random 1) (fun () ->
         for i = 0 to 3 do
           ignore
             (Sched.spawn (fun () ->
                  Sched.point ();
                  done_.(i) <- true))
         done));
  Array.iteri (fun i d -> checkb (Printf.sprintf "thread %d ran" i) true d) done_

let test_deterministic_same_seed () =
  let trace_of seed =
    let body () =
      let r = ref 0 in
      for _ = 1 to 3 do
        ignore
          (Sched.spawn (fun () ->
               Sched.point ();
               incr r;
               Sched.point ()))
      done
    in
    let o = Sched.run ~record:true (Strategy.Random seed) body in
    Trace.chosen (Option.get o.Sched.trace)
  in
  Alcotest.(check (array int)) "same seed same schedule" (trace_of 5) (trace_of 5);
  checkb "different seeds usually differ" true (trace_of 5 <> trace_of 6)

let test_tid_inside () =
  let seen = ref [] in
  ignore
    (Sched.run Strategy.Round_robin (fun () ->
         ignore (Sched.spawn (fun () -> seen := Sched.tid () :: !seen));
         ignore (Sched.spawn (fun () -> seen := Sched.tid () :: !seen))));
  Alcotest.(check (list int)) "tids" [ 2; 1 ] (List.sort compare !seen |> List.rev)

(* Thread slots: simulated thread t has slot t + 1, the main domain slot
   1, and every other live domain a slot of its own above the simulated
   threads'. A domain gives its slot back when it exits, and the next
   domain to draw one gets it. *)
let test_slots () =
  let seen = ref [] in
  let note () = seen := (Sched.tid (), Sched.slot ()) :: !seen in
  ignore
    (Sched.run (Strategy.Random 2) (fun () ->
         note ();
         Sched.join [ Sched.spawn note; Sched.spawn note ]));
  Alcotest.(check (list (pair int int)))
    "simulated slot = tid + 1"
    [ (0, 1); (1, 2); (2, 3) ]
    (List.sort compare !seen);
  checki "main domain" 1 (Sched.slot ());
  let drawn = Atomic.make 0 in
  let hold () =
    let s = Sched.slot () in
    Atomic.incr drawn;
    while Atomic.get drawn < 2 do
      Domain.cpu_relax ()
    done;
    s
  in
  let d1 = Domain.spawn hold and d2 = Domain.spawn hold in
  let s1 = Domain.join d1 and s2 = Domain.join d2 in
  checkb "live domains hold distinct slots" true (s1 <> s2);
  List.iter
    (fun s ->
      checkb "a domain slot is above the simulated ones" true
        (s >= Limits.thread_slots && s < Limits.slots))
    [ s1; s2 ];
  let s3 = Domain.join (Domain.spawn Sched.slot) in
  checki "a joined domain's slot is drawn again" s3
    (Domain.join (Domain.spawn Sched.slot))

let test_point_outside_is_noop () =
  Sched.point ();
  checkb "not active outside" false (Sched.active ())

let test_active_inside () =
  let was_active = ref false in
  ignore (Sched.run Strategy.Round_robin (fun () -> was_active := Sched.active ()));
  checkb "active inside" true !was_active

let test_spawn_outside_rejected () =
  Alcotest.check_raises "spawn outside"
    (Invalid_argument "Sched.spawn: not inside a simulation run") (fun () ->
      ignore (Sched.spawn (fun () -> ())))

let test_nested_run_rejected () =
  (* The rejection happens inside the simulated thread, so it surfaces as
     that thread's failure. *)
  checkb "nested run rejected" true
    (match
       Sched.run Strategy.Round_robin (fun () ->
           ignore (Sched.run Strategy.Round_robin (fun () -> ())))
     with
    | _ -> false
    | exception Sched.Thread_failure { exn = Invalid_argument msg; _ } ->
        msg = "Sched.run: nested simulation"
    | exception _ -> false)

let test_step_limit () =
  checkb "raises step limit" true
    (match
       Sched.run ~max_steps:100 Strategy.Round_robin (fun () ->
           while true do
             Sched.point ()
           done)
     with
    | _ -> false
    | exception Sched.Step_limit_exceeded _ -> true)

let test_thread_failure_propagates () =
  checkb "failure carries tid" true
    (match
       Sched.run (Strategy.Random 3) (fun () ->
           ignore (Sched.spawn (fun () -> failwith "boom")))
     with
    | _ -> false
    | exception Sched.Thread_failure { tid; exn = Failure msg; _ } ->
        tid = 1 && msg = "boom"
    | exception _ -> false)

let test_join_waits () =
  let order = ref [] in
  ignore
    (Sched.run (Strategy.Random 9) (fun () ->
         let t1 =
           Sched.spawn (fun () ->
               Sched.point ();
               Sched.point ();
               order := `Worker :: !order)
         in
         Sched.join [ t1 ];
         order := `Main :: !order));
  Alcotest.(check bool) "worker before main" true (!order = [ `Main; `Worker ])

let test_join_many () =
  let count = ref 0 in
  ignore
    (Sched.run (Strategy.Random 4) (fun () ->
         let tids =
           List.init 5 (fun _ ->
               Sched.spawn (fun () ->
                   Sched.point ();
                   incr count))
         in
         Sched.join tids;
         checki "all finished at join" 5 !count))

let test_per_thread_steps () =
  let o =
    Sched.run Strategy.Round_robin (fun () ->
        ignore
          (Sched.spawn (fun () ->
               Sched.point ();
               Sched.point ())))
  in
  checki "two threads tracked" 2 (Array.length o.Sched.per_thread_steps);
  checkb "worker stepped" true (o.Sched.per_thread_steps.(1) >= 2)

(* A finish by [kill] or by an injected crash releases a join, as a
   return does. Main joins [a; b]; the recorded enabled sets show a's bit
   gone from the kill or crash on and main's back once both have
   finished. The killer b outlives a, so b's return releases main; in
   the crash run b returns first, so the crash itself does. A last run
   joins a alone, so the kill itself releases main. *)
let test_kill_and_crash_release_join () =
  let steps (o : Sched.outcome) =
    Array.to_list
      (Array.map
         (fun (st : Trace.step) -> (st.tid, Trace.enabled_list st))
         (Option.get o.trace))
  in
  let looping () =
    for _ = 1 to 10 do
      Sched.point ()
    done
  in
  let killed =
    Sched.run ~record:true Strategy.Round_robin (fun () ->
        let a = Sched.spawn looping in
        let b =
          Sched.spawn (fun () ->
              Sched.point ();
              Sched.kill a;
              Sched.point ())
        in
        Sched.join [ a; b ])
  in
  Alcotest.(check (list (pair int (list int))))
    "kill: steps and enabled sets"
    [
      (0, [ 0 ]); (1, [ 1; 2 ]); (2, [ 1; 2 ]); (1, [ 1; 2 ]); (2, [ 1; 2 ]);
      (2, [ 2 ]); (0, [ 0 ]);
    ]
    (steps killed);
  Alcotest.(check (list int)) "kill is not a crash" [] killed.crashed;
  let killed_alone =
    Sched.run ~record:true Strategy.Round_robin (fun () ->
        let a = Sched.spawn looping in
        ignore
          (Sched.spawn (fun () ->
               Sched.point ();
               Sched.kill a;
               Sched.point ()));
        Sched.join [ a ])
  in
  Alcotest.(check (list (pair int (list int))))
    "kill releases a join on its own"
    [
      (0, [ 0 ]); (1, [ 1; 2 ]); (2, [ 1; 2 ]); (1, [ 1; 2 ]); (2, [ 1; 2 ]);
      (0, [ 0; 2 ]); (2, [ 2 ]);
    ]
    (steps killed_alone);
  let crashed =
    Sched.run ~record:true
      ~inject_crash:(fun ~tid ~step -> tid = 1 && step = 5)
      Strategy.Round_robin
      (fun () ->
        let a = Sched.spawn looping in
        let b = Sched.spawn Sched.point in
        Sched.join [ a; b ])
  in
  Alcotest.(check (list (pair int (list int))))
    "crash: steps and enabled sets"
    [
      (0, [ 0 ]); (1, [ 1; 2 ]); (2, [ 1; 2 ]); (1, [ 1; 2 ]); (2, [ 1; 2 ]);
      (1, [ 1 ]); (0, [ 0 ]);
    ]
    (steps crashed);
  Alcotest.(check (list int)) "a crashed" [ 1 ] crashed.crashed

(* --- Trace --- *)

let test_trace_preemptions () =
  let t =
    [|
      { Trace.tid = 0; enabled = 0b11 };
      { Trace.tid = 1; enabled = 0b11 };
      (* preempt: 0 still enabled *)
      { Trace.tid = 0; enabled = 0b01 };
      (* not a preemption: 1 finished *)
    |]
  in
  checki "one preemption" 1 (Trace.preemptions t)

let test_trace_enabled_list () =
  Alcotest.(check (list int)) "decode mask" [ 0; 2 ]
    (Trace.enabled_list { Trace.tid = 0; enabled = 0b101 })

(* --- Strategies --- *)

let test_scripted_replay () =
  let body () =
    ignore (Sched.spawn (fun () -> Sched.point ()));
    ignore (Sched.spawn (fun () -> Sched.point ()))
  in
  let o = Sched.run ~record:true (Strategy.Random 17) body in
  let schedule = Trace.chosen (Option.get o.Sched.trace) in
  let o2 =
    Sched.run ~record:true
      (Strategy.Scripted { prefix = schedule; tail_seed = None })
      body
  in
  Alcotest.(check (array int)) "replay identical" schedule
    (Trace.chosen (Option.get o2.Sched.trace))

let test_scripted_divergence_detected () =
  checkb "diverged script detected" true
    (match
       Sched.run
         (Strategy.Scripted { prefix = [| 5 |]; tail_seed = None })
         (fun () -> Sched.point ())
     with
    | _ -> false
    | exception Strategy.Script_diverged _ -> true)

let test_pct_runs () =
  let o =
    Sched.run (Strategy.Pct { seed = 2; change_points = 3 }) (fun () ->
        for _ = 1 to 3 do
          ignore
            (Sched.spawn (fun () ->
                 Sched.point ();
                 Sched.point ()))
        done)
  in
  checkb "pct completes" true (o.Sched.steps > 0)

(* --- Schedule identity: the cached-id [choose] against the list model --- *)

(* A list-based [Strategy.choose], kept as the reference model: same
   parameters, same Rng draws, same picks. *)
module Model = struct
  module Rng = Lfrc_util.Rng

  type state =
    | Rr_state
    | Random_state of Rng.t
    | Pct_state of {
        rng : Rng.t;
        priorities : float array;
        change_steps : int array;
      }
    | Scripted_state of { prefix : int array; tail : Rng.t option }
    | Handicap_state of { rng : Rng.t; victim : int; period : int }

  let max_threads = 62

  let bits_of enabled =
    let rec go i acc =
      if i > max_threads then List.rev acc
      else go (i + 1) (if enabled land (1 lsl i) <> 0 then i :: acc else acc)
    in
    go 0 []

  let start (t : Strategy.t) ~expected_steps =
    match t with
    | Round_robin -> Rr_state
    | Random seed -> Random_state (Rng.create seed)
    | Pct { seed; change_points } ->
        let rng = Rng.create seed in
        let priorities = Array.init max_threads (fun _ -> Rng.float rng) in
        let change_steps =
          Array.init change_points (fun _ ->
              Rng.int rng (max expected_steps 1))
        in
        Array.sort compare change_steps;
        Pct_state { rng; priorities; change_steps }
    | Scripted { prefix; tail_seed } ->
        Scripted_state { prefix; tail = Option.map Rng.create tail_seed }
    | Handicap { seed; victim; period } ->
        Handicap_state { rng = Rng.create seed; victim; period }

  let first_enabled enabled =
    let rec go i =
      if enabled land (1 lsl i) <> 0 then i
      else if i >= max_threads then invalid_arg "Strategy: empty enabled set"
      else go (i + 1)
    in
    go 0

  let choose st ~step ~enabled ~last =
    match st with
    | Rr_state ->
        let rec go i =
          let i = if i > max_threads then 0 else i in
          if enabled land (1 lsl i) <> 0 then i else go (i + 1)
        in
        go (last + 1)
    | Random_state rng ->
        let ids = bits_of enabled in
        List.nth ids (Rng.int rng (List.length ids))
    | Pct_state { rng; priorities; change_steps } ->
        if Array.exists (fun s -> s = step) change_steps then begin
          let ids = bits_of enabled in
          let best =
            List.fold_left
              (fun acc i ->
                if priorities.(i) < priorities.(acc) then i else acc)
              (List.hd ids) ids
          in
          priorities.(best) <- 1.0 +. Rng.float rng
        end;
        let ids = bits_of enabled in
        List.fold_left
          (fun acc i -> if priorities.(i) < priorities.(acc) then i else acc)
          (List.hd ids) ids
    | Handicap_state { rng; victim; period } ->
        let frozen = step mod (2 * period) >= period in
        let eligible =
          if frozen && enabled <> 1 lsl victim then
            enabled land lnot (1 lsl victim)
          else enabled
        in
        let ids = bits_of eligible in
        List.nth ids (Rng.int rng (List.length ids))
    | Scripted_state { prefix; tail } ->
        if step < Array.length prefix then prefix.(step)
        else begin
          match tail with
          | None -> first_enabled enabled
          | Some rng ->
              let ids = bits_of enabled in
              List.nth ids (Rng.int rng (List.length ids))
        end
end

let all_threads = (1 lsl 62) - 1

(* An enabled set of 1 to 62 threads. *)
let random_mask r =
  let mask = ref 0 in
  for _ = 0 to Lfrc_util.Rng.int r 62 do
    mask := !mask lor (1 lsl Lfrc_util.Rng.int r 62)
  done;
  !mask

let steps = 500

(* The strategies under test, each from one seed: change points fall
   inside the sequence, and a script covers its first steps. *)
let strategy_of kind seed =
  let r = Lfrc_util.Rng.create (seed + 1) in
  match kind with
  | `Rr -> Strategy.Round_robin
  | `Random -> Strategy.Random seed
  | `Pct ->
      Strategy.Pct { seed; change_points = 1 + Lfrc_util.Rng.int r 8 }
  | `Handicap ->
      Strategy.Handicap
        {
          seed;
          victim = Lfrc_util.Rng.int r 62;
          period = 1 + Lfrc_util.Rng.int r 20;
        }
  | `Scripted ->
      Strategy.Scripted
        {
          prefix = Array.init (Lfrc_util.Rng.int r 100) (fun _ ->
              Lfrc_util.Rng.int r 62);
          tail_seed = Some seed;
        }

(* [steps] random enabled sets, each fed 1 to 4 times in a row, then
   eight more with every thread enabled: at each step both must pick the
   same thread. A repeated mask reuses [Strategy]'s cached ids and a new
   one rebuilds them, Handicap's alternating eligible set included. The
   full-mask tail shows that both consumed the same Rng draws over the
   sequence. *)
let prop_choose_matches_model (kind, name) =
  QCheck2.Test.make
    ~name:(name ^ " picks what the list model picks")
    ~count:100 QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let t = strategy_of kind seed in
      let st = Strategy.start t ~expected_steps:steps in
      let model = Model.start t ~expected_steps:steps in
      let prefix =
        match t with Strategy.Scripted { prefix; _ } -> prefix | _ -> [||]
      in
      let masks = Lfrc_util.Rng.create (seed + 2) in
      let mask = ref 0 and repeats = ref 0 in
      let last = ref (-1) and ok = ref true in
      for step = 0 to steps + 7 do
        if !repeats = 0 then begin
          mask := random_mask masks;
          repeats := 1 + Lfrc_util.Rng.int masks 4
        end;
        decr repeats;
        let enabled =
          if step >= steps then all_threads
          else
            !mask
            lor if step < Array.length prefix then 1 lsl prefix.(step) else 0
        in
        let want = Model.choose model ~step ~enabled ~last:!last in
        let got = Strategy.choose st ~step ~enabled ~last:!last in
        if got <> want then ok := false;
        last := want
      done;
      !ok)

let strategy_kinds =
  [
    (`Rr, "round robin");
    (`Random, "random");
    (`Pct, "pct");
    (`Handicap, "handicap");
    (`Scripted, "scripted with tail");
  ]

(* --- Allocation budgets --- *)

let words_per_call n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. Float.of_int n

(* A choice at a step that is not a PCT change point allocates nothing. *)
let test_choose_allocates_nothing () =
  let masks = Array.init 64 (fun i -> random_mask (Lfrc_util.Rng.create i)) in
  List.iter
    (fun (name, t) ->
      (* [expected_steps:1] puts every change point at step 0. *)
      let st = Strategy.start t ~expected_steps:1 in
      ignore (Strategy.choose st ~step:0 ~enabled:masks.(0) ~last:(-1));
      let words =
        words_per_call 10_000 (fun i ->
            ignore
              (Sys.opaque_identity
                 (Strategy.choose st ~step:(i + 1) ~enabled:masks.(i land 63)
                    ~last:(i mod 62))))
      in
      Alcotest.(check (float 0.)) (name ^ " words/call") 0. words)
    [
      ("round robin", Strategy.Round_robin);
      ("random", Strategy.Random 3);
      ("pct", Strategy.Pct { seed = 3; change_points = 3 });
      ("handicap", Strategy.Handicap { seed = 3; victim = 1; period = 7 });
      ( "scripted tail",
        Strategy.Scripted { prefix = [| 0 |]; tail_seed = Some 3 } );
      ("scripted first-enabled", Strategy.Scripted { prefix = [||]; tail_seed = None });
    ]

(* A simulated step allocates its continuation and its [Suspended] box:
   at most 4 words per [Sched.point], alone and with a joined main
   thread. *)
let test_point_budget () =
  let n = 10_000 in
  let points _ = Sched.point () in
  let budget name words =
    if words > 4. then
      Alcotest.failf "%s: %.2f words per Sched.point (budget 4)" name words
  in
  let words = ref 0. in
  ignore
    (Sched.run Strategy.Round_robin (fun () ->
         words := words_per_call n points));
  budget "one thread, round robin" !words;
  ignore
    (Sched.run (Strategy.Random 5) (fun () ->
         let w = Sched.spawn (fun () -> words := words_per_call n points) in
         Sched.join [ w ]));
  budget "random, main joined" !words

(* --- Explore --- *)

let test_explore_finds_race () =
  let counter = ref 0 in
  let body () =
    counter := 0;
    let worker () =
      Sched.point ();
      let v = !counter in
      Sched.point ();
      counter := v + 1
    in
    ignore (Sched.spawn worker);
    ignore (Sched.spawn worker)
  in
  let check () = if !counter <> 2 then failwith "lost update" in
  match Explore.check ~body ~check () with
  | Explore.Violation { exn = Failure msg; schedule; _ } ->
      checkb "right failure" true (msg = "lost update");
      checkb "counterexample non-trivial" true (Array.length schedule > 0)
  | _ -> Alcotest.fail "expected a violation"

let test_explore_passes_atomic () =
  let counter = Atomic.make 0 in
  let body () =
    Atomic.set counter 0;
    let worker () =
      Sched.point ();
      Atomic.incr counter
    in
    ignore (Sched.spawn worker);
    ignore (Sched.spawn worker)
  in
  let check () = if Atomic.get counter <> 2 then failwith "impossible" in
  match Explore.check ~body ~check () with
  | Explore.Ok { schedules } -> checkb "explored >1 schedule" true (schedules > 1)
  | _ -> Alcotest.fail "expected OK"

let test_explore_budget () =
  let body () =
    for _ = 1 to 4 do
      ignore
        (Sched.spawn (fun () ->
             for _ = 1 to 10 do
               Sched.point ()
             done))
    done
  in
  match Explore.check ~max_schedules:5 ~body ~check:(fun () -> ()) () with
  | Explore.Budget_exhausted { schedules } -> checki "stopped at budget" 5 schedules
  | _ -> Alcotest.fail "expected budget exhaustion"

let test_explore_replay_counterexample () =
  let counter = ref 0 in
  let body () =
    counter := 0;
    let worker () =
      Sched.point ();
      let v = !counter in
      Sched.point ();
      counter := v + 1
    in
    ignore (Sched.spawn worker);
    ignore (Sched.spawn worker)
  in
  match Explore.check ~body ~check:(fun () -> if !counter <> 2 then failwith "x") () with
  | Explore.Violation { schedule; _ } ->
      let trace = Explore.replay schedule body in
      checkb "replay reproduces" true (!counter <> 2 && Array.length trace > 0)
  | _ -> Alcotest.fail "expected violation"

let () =
  Alcotest.run "sched"
    [
      ( "scheduler",
        [
          Alcotest.test_case "runs to completion" `Quick test_runs_to_completion;
          Alcotest.test_case "spawn runs all" `Quick test_spawn_runs_all;
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic_same_seed;
          Alcotest.test_case "tid inside" `Quick test_tid_inside;
          Alcotest.test_case "thread slots" `Quick test_slots;
          Alcotest.test_case "point outside noop" `Quick test_point_outside_is_noop;
          Alcotest.test_case "active inside" `Quick test_active_inside;
          Alcotest.test_case "spawn outside rejected" `Quick test_spawn_outside_rejected;
          Alcotest.test_case "nested run rejected" `Quick test_nested_run_rejected;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "thread failure" `Quick test_thread_failure_propagates;
          Alcotest.test_case "join waits" `Quick test_join_waits;
          Alcotest.test_case "join many" `Quick test_join_many;
          Alcotest.test_case "per-thread steps" `Quick test_per_thread_steps;
          Alcotest.test_case "kill and crash release a join" `Quick
            test_kill_and_crash_release_join;
        ] );
      ( "trace",
        [
          Alcotest.test_case "preemptions" `Quick test_trace_preemptions;
          Alcotest.test_case "enabled list" `Quick test_trace_enabled_list;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "scripted replay" `Quick test_scripted_replay;
          Alcotest.test_case "script divergence" `Quick test_scripted_divergence_detected;
          Alcotest.test_case "pct runs" `Quick test_pct_runs;
        ] );
      ( "schedule identity",
        List.map
          (fun k -> QCheck_alcotest.to_alcotest (prop_choose_matches_model k))
          strategy_kinds );
      ( "allocation",
        [
          Alcotest.test_case "choose allocates nothing" `Quick
            test_choose_allocates_nothing;
          Alcotest.test_case "point budget" `Quick test_point_budget;
        ] );
      ( "explore",
        [
          Alcotest.test_case "finds race" `Quick test_explore_finds_race;
          Alcotest.test_case "passes atomic" `Quick test_explore_passes_atomic;
          Alcotest.test_case "budget" `Quick test_explore_budget;
          Alcotest.test_case "replay counterexample" `Quick test_explore_replay_counterexample;
        ] );
    ]
