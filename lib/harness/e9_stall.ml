(** E9 — progress under a stalled thread: lock-freedom's actual content.

    The paper's case for lock-freedom (§1) is "susceptibility to delays
    and failures": with a lock, a preempted/stalled holder stalls
    everyone; with a lock-free structure, a stalled thread delays only
    itself. The [Handicap] strategy models a victim scheduled once per
    [period] steps; within a fixed budget of scheduler steps, we count
    how many operations the *whole system* completes. A stalled lock
    holder makes everyone else spin the budget away; a stalled lock-free
    thread costs only its own share. *)

module Sched = Lfrc_sched.Sched
module Table = Lfrc_util.Table
module Opmix = Lfrc_workload.Opmix

let step_budget = 150_000
let stall_period = 3_000

let run_one (module D : Lfrc_structures.Container_intf.DEQUE) ~gc ~threads ~seed
    ~metrics ~tracer ~profile ~strategy =
  let completed = Atomic.make 0 in
  let last_progress = ref 0 in
  let max_gap = ref 0 in
  let note_progress () =
    let now = Sched.steps_so_far () in
    max_gap := max !max_gap (now - !last_progress);
    last_progress := now
  in
  let body () =
    let heap = Lfrc_simmem.Heap.create ~name:"e9" () in
    let env =
      Lfrc_core.Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step
        ~gc_threshold:(if gc then 2048 else 0)
        ~metrics ~tracer ~profile heap
    in
    let d = D.create env in
    let tids =
      List.init threads (fun thr ->
          Sched.spawn (fun () ->
              let h = D.register d in
              let stream =
                Opmix.stream Opmix.balanced_deque ~seed ~thread:thr 1_000_000
              in
              (* endless: the step budget ends the run *)
              Array.iteri
                (fun i op ->
                  let v = Common.value_stream ~seed ~thread:thr i in
                  (match op with
                  | Opmix.Push_left -> D.push_left h v
                  | Opmix.Push_right -> D.push_right h v
                  | Opmix.Pop_left -> ignore (D.pop_left h)
                  | Opmix.Pop_right -> ignore (D.pop_right h));
                  Atomic.incr completed;
                  note_progress ())
                stream))
    in
    Sched.join tids
  in
  (match Sched.run ~max_steps:step_budget strategy body with
  | _ -> failwith "E9 workload ended before the step budget"
  | exception Sched.Step_limit_exceeded _ -> ());
  max_gap := max !max_gap (step_budget - !last_progress);
  (Atomic.get completed, !max_gap)

let run (cfg : Scenario.config) =
  let threads = max 1 (min cfg.Scenario.threads 4) in
  let seed = cfg.Scenario.seed + 30 in
  let { Lfrc_obs.Obs.metrics; tracer; profile; _ } = Common.obs cfg in
  let run_one impl ~gc ~strategy =
    run_one impl ~gc ~threads ~seed ~metrics ~tracer ~profile ~strategy
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E9: ops completed in %dk steps; one thread frozen in %d-step windows"
           (step_budget / 1000) stall_period)
      ~columns:
        [ "impl"; "ops fair"; "ops stalled"; "kept %"; "max no-progress fair";
          "stalled" ]
  in
  List.iter
    (fun (label, impl, gc) ->
      let fair, gap_fair =
        run_one impl ~gc ~strategy:(Lfrc_sched.Strategy.Random seed)
      in
      let stalled, gap_stalled =
        run_one impl ~gc
          ~strategy:
            (Lfrc_sched.Strategy.Handicap
               { seed; victim = 1; period = stall_period })
      in
      Table.add_rowf table "%s|%d|%d|%.1f|%d|%d" label fair stalled
        (100.0 *. Float.of_int stalled /. Float.of_int fair)
        gap_fair gap_stalled)
    (Common.deque_impls ());
  Common.result ~table ~profile metrics
