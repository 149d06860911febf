(* Bug hunt for the published Snark deque (EXPERIMENTS.md A4).

   Runs families of small concurrent scenarios against the published
   algorithm under randomized, PCT and bounded-exhaustive scheduling,
   checking every history for linearizability against the sequential deque
   specification. Doherty et al. (SPAA 2004) proved such races exist; this
   program rediscovers one mechanically.

   Usage: hunt_snark [published|fixed] [seconds] *)

module Scenario = Lfrc_harness.Scenario
module Strategy = Lfrc_sched.Strategy

module Published = Lfrc_structures.Snark.Make (Lfrc_core.Lfrc_ops)
module Fixed = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)

open Scenario

let scenarios :
    (string * int list * op list list) list =
  [
    ("2pre/popR+popL+pushR", [ 1; 2 ], [ [ Pop_right ]; [ Pop_left ]; [ Push_right 3 ] ]);
    ("1pre/popR+popL+pushL", [ 1 ], [ [ Pop_right ]; [ Pop_left ]; [ Push_left 3 ] ]);
    ("2pre/popR+popR+popL", [ 1; 2 ], [ [ Pop_right ]; [ Pop_right ]; [ Pop_left ] ]);
    ("1pre/2popR+popL+2pushR", [ 1 ],
     [ [ Pop_right; Pop_right ]; [ Pop_left ]; [ Push_right 3; Push_right 4 ] ]);
    ("0pre/mixed2", [],
     [ [ Push_right 1; Pop_left ]; [ Push_left 2; Pop_right ] ]);
    ("2pre/poppushR+poppushL", [ 1; 2 ],
     [ [ Pop_right; Push_right 3 ]; [ Pop_left; Push_left 4 ] ]);
    ("1pre/popR+popL+pushpopR", [ 1 ],
     [ [ Pop_right ]; [ Pop_left ]; [ Push_right 2; Pop_right ] ]);
    ("1pre/3way-churn", [ 1 ],
     [ [ Push_right 2; Pop_right ]; [ Pop_left; Push_left 3 ]; [ Pop_right ] ]);
  ]

let deadline = ref infinity

let expired () = Unix.gettimeofday () > !deadline

let report_violation name kind detail =
  Printf.printf "VIOLATION scenario=%s via=%s\n%s\n%!" name kind detail;
  exit 1

let hunt_random dq (name, preload, threads) =
  let seed = ref 0 in
  let start = Unix.gettimeofday () in
  while (not (expired ())) && Unix.gettimeofday () -. start < 30.0 do
    for _ = 0 to 499 do
      let strat =
        if !seed land 1 = 0 then Strategy.Random !seed
        else Strategy.Pct { seed = !seed; change_points = 3 }
      in
      (match Scenario.run dq ~preload ~threads strat with
      | { ok = false; history; _ } ->
          let buf = Buffer.create 256 in
          List.iter
            (fun (e : _ Lfrc_linearize.History.event) ->
              Buffer.add_string buf
                (Format.asprintf "  t%d: %a -> %a [%d,%d]\n" e.thread pp_op
                   e.op pp_res e.result e.invoked_at e.returned_at))
            history;
          report_violation name
            (Format.asprintf "random(seed=%d)" !seed)
            (Buffer.contents buf)
      | _ -> ()
      | exception exn ->
          report_violation name
            (Printf.sprintf "random(seed=%d)" !seed)
            (Printexc.to_string exn));
      incr seed
    done
  done;
  Printf.printf "  %s: %d randomized schedules clean\n%!" name !seed

let hunt_exhaustive dq (name, preload, threads) ~max_preemptions ~budget =
  if not (expired ()) then begin
    let body, check = Scenario.body_and_check dq ~preload ~threads () in
    match
      Lfrc_sched.Explore.check ~max_preemptions ~max_schedules:budget ~body
        ~check ()
    with
    | Lfrc_sched.Explore.Ok { schedules } ->
        Printf.printf "  %s: exhaustive(p<=%d) complete, %d schedules clean\n%!"
          name max_preemptions schedules
    | Lfrc_sched.Explore.Budget_exhausted { schedules } ->
        Printf.printf "  %s: exhaustive(p<=%d) budget out at %d schedules\n%!"
          name max_preemptions schedules
    | Lfrc_sched.Explore.Violation { schedules; exn; schedule; trace = _ } ->
        report_violation name
          (Printf.sprintf "exhaustive(p<=%d, after %d schedules, len %d)"
             max_preemptions schedules (Array.length schedule))
          (Printexc.to_string exn)
  end

let () =
  let variant = if Array.length Sys.argv > 1 then Sys.argv.(1) else "published" in
  let seconds =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 240.0
  in
  deadline := Unix.gettimeofday () +. seconds;
  let dq : (module Lfrc_structures.Container_intf.DEQUE) =
    match variant with
    | "fixed" -> (module Fixed)
    | _ -> (module Published)
  in
  Printf.printf "hunting %s for %.0fs...\n%!" variant seconds;
  List.iter (fun sc -> hunt_random dq sc) scenarios;
  List.iter
    (fun sc -> hunt_exhaustive dq sc ~max_preemptions:2 ~budget:50_000)
    scenarios;
  List.iter
    (fun sc -> hunt_exhaustive dq sc ~max_preemptions:3 ~budget:100_000)
    scenarios;
  Printf.printf "no violation found within budget\n%!"
