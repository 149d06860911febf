exception Step_limit_exceeded of int

exception
  Thread_failure of {
    tid : int;
    exn : exn;
    trace : Trace.t option;
    repro : string;
  }

exception Stuck of { unfinished : int list }

let () =
  Printexc.register_printer (function
    | Thread_failure { tid; exn; repro; _ } ->
        Some
          (Printf.sprintf "Sched.Thread_failure(tid=%d, %s) [replay: %s]" tid
             (Printexc.to_string exn) repro)
    | _ -> None)

type outcome = {
  steps : int;
  per_thread_steps : int array;
  trace : Trace.t option;
  crashed : int list;
}

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Spawn : (string * (unit -> unit)) -> int Effect.t
type _ Effect.t += Join : int list -> unit Effect.t

type thread_state =
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Waiting of int list * (unit, unit) Effect.Deep.continuation
  | Running
  | Finished

type thread = { id : int; name : string; mutable state : thread_state }

type sched = {
  mutable threads : thread array;
  mutable n_threads : int;
  mutable current : int;
  mutable enabled : int;
      (* Bit [i] is set iff thread [i] can run: not started, parked at a
         yield point, or waiting on a join whose threads have all
         finished. Kept at every state change rather than rebuilt at
         every step. *)
  mutable steps : int;
  mutable per_thread : int array;
  mutable failure : (int * exn) option;
  mutable aborting : bool;
  record : bool;
  mutable trace_buf : Trace.step list; (* reversed *)
  mutable crashed : int list; (* reversed crash order *)
  max_steps : int;
  strategy : Strategy.state;
  inject_crash : tid:int -> step:int -> bool;
  mutable crash : bool; (* the crash verdict on the step last decided *)
  mutable handed : int;
      (* The thread a step decided in [point] runs, when that step could
         not be taken in place; -1 when the loop decides the next step. *)
  mutable raised : exn option;
      (* What deciding a step in [point] raised, for the loop to raise. *)
}

(* The scheduler is single-domain; a plain global distinguishes "inside a
   simulation" from real-parallel execution because real domains never call
   [run]. Spawning domains from inside a simulation is not supported. *)
let current_sched : sched option ref = ref None

let active () = !current_sched <> None
let tid () = match !current_sched with None -> 0 | Some s -> s.current

(* Real domains other than the main one hold slots above the simulated
   threads', drawn from a pool with one slot per domain OCaml can run at
   once, so it cannot run dry. The newest slot given back is drawn
   first. *)
let free_slots =
  ref (List.init Limits.domain_slots (fun i -> Limits.thread_slots + i))

let free_slots_lock = Mutex.create ()

let give_back s () =
  Mutex.lock free_slots_lock;
  free_slots := s :: !free_slots;
  Mutex.unlock free_slots_lock

let draw_slot () =
  Mutex.lock free_slots_lock;
  match !free_slots with
  | [] ->
      Mutex.unlock free_slots_lock;
      failwith "Sched.slot: every domain slot is taken"
  | s :: rest ->
      free_slots := rest;
      Mutex.unlock free_slots_lock;
      Domain.at_exit (give_back s);
      s

let domain_slot =
  Domain.DLS.new_key (fun () ->
      if Domain.is_main_domain () then Limits.slot_of_tid 0 else draw_slot ())

let slot () =
  match !current_sched with
  | Some s -> s.current + 1
  | None -> Domain.DLS.get domain_slot

let steps_so_far () = match !current_sched with None -> 0 | Some s -> s.steps

let name_of tid =
  match !current_sched with
  | Some s when tid >= 0 && tid < s.n_threads -> s.threads.(tid).name
  | _ -> Printf.sprintf "t%d" tid

let spawn ?name body =
  if !current_sched = None then
    invalid_arg "Sched.spawn: not inside a simulation run";
  let name = match name with Some n -> n | None -> "" in
  Effect.perform (Spawn (name, body))

let join tids =
  if !current_sched = None then
    invalid_arg "Sched.join: not inside a simulation run";
  Effect.perform (Join tids)

let rec all_finished s = function
  | [] -> true
  | t :: rest -> (
      t < s.n_threads
      &&
      match s.threads.(t).state with
      | Finished -> all_finished s rest
      | Not_started _ | Suspended _ | Waiting _ | Running -> false)

(* [th] is finished: it never runs again, and the joins it held up may
   now be released. A finish is the only event that can release one. *)
let finish s th =
  th.state <- Finished;
  s.enabled <- s.enabled land lnot (1 lsl th.id);
  for i = 0 to s.n_threads - 1 do
    match s.threads.(i).state with
    | Waiting (tids, _) ->
        if all_finished s tids then s.enabled <- s.enabled lor (1 lsl i)
    | Not_started _ | Suspended _ | Running | Finished -> ()
  done

let kill tid =
  match !current_sched with
  | None -> invalid_arg "Sched.kill: not inside a simulation run"
  | Some s ->
      if tid = s.current then invalid_arg "Sched.kill: cannot kill self";
      if tid < 0 || tid >= s.n_threads then
        invalid_arg "Sched.kill: no such thread";
      let th = s.threads.(tid) in
      (match th.state with
      | Suspended _ | Waiting _ | Not_started _ ->
          (* Drop the continuation without unwinding: a crashed thread
             runs no cleanup, which is the point of the model. *)
          finish s th
      | Running | Finished -> ())

let add_thread s name body =
  let id = s.n_threads in
  if id >= Limits.max_threads then
    invalid_arg
      (Printf.sprintf "Sched: more than %d threads" Limits.max_threads);
  if id >= Array.length s.threads then begin
    let nt = Array.make (2 * Array.length s.threads) s.threads.(0) in
    Array.blit s.threads 0 nt 0 (Array.length s.threads);
    s.threads <- nt;
    let np = Array.make (2 * Array.length s.per_thread) 0 in
    Array.blit s.per_thread 0 np 0 (Array.length s.per_thread);
    s.per_thread <- np
  end;
  let name = if name = "" then Printf.sprintf "t%d" id else name in
  s.threads.(id) <- { id; name; state = Not_started body };
  s.n_threads <- id + 1;
  s.enabled <- s.enabled lor (1 lsl id);
  id

(* A thread's effect handler, built once when it starts: a resumed
   continuation keeps the handler it was captured under, so no later step
   needs one. The [Yield] arm is built with it, so a step that parks its
   thread allocates only the continuation and its [Suspended] box. *)
let handler s th : (unit, unit) Effect.Deep.handler =
  let bit = 1 lsl th.id in
  let on_yield =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        th.state <- Suspended k;
        s.enabled <- s.enabled lor bit)
  in
  {
    retc = (fun () -> finish s th);
    exnc =
      (fun exn ->
        finish s th;
        if (not s.aborting) && s.failure = None then
          s.failure <- Some (th.id, exn));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Yield -> on_yield
        | Spawn (name, body) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let id = add_thread s name body in
                Effect.Deep.continue k id)
        | Join tids ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if s.aborting || all_finished s tids then
                  Effect.Deep.continue k ()
                else th.state <- Waiting (tids, k))
        | _ -> None);
  }

(* Run one thread until it yields, finishes, or fails. *)
let step_thread s th =
  s.enabled <- s.enabled land lnot (1 lsl th.id);
  match th.state with
  | Not_started body ->
      th.state <- Running;
      Effect.Deep.match_with body () (handler s th)
  | Suspended k | Waiting (_, k) ->
      th.state <- Running;
      Effect.Deep.continue k ()
  | Running | Finished -> assert false

(* Decide step [s.steps] over [enabled], [last] having run the step
   before: draw the thread, record and count the step, and ask the crash
   hook whether it crashes a thread this step resumes from a yield point
   or starts. The chosen thread is [Running] when it is the caller of
   [point]: a resume that keeps it running. *)
let decide s ~enabled ~last =
  let choice = Strategy.choose s.strategy ~step:s.steps ~enabled ~last in
  if s.record then
    s.trace_buf <- { Trace.tid = choice; enabled } :: s.trace_buf;
  s.steps <- s.steps + 1;
  s.per_thread.(choice) <- s.per_thread.(choice) + 1;
  s.crash <-
    (match s.threads.(choice).state with
    | Not_started _ | Suspended _ | Running -> true
    | Waiting _ | Finished -> false)
    && s.inject_crash ~tid:choice ~step:(s.steps - 1);
  choice

(* The running thread decides the next step itself, as the loop would.
   When the step keeps it running and does not crash it, the step is
   taken in place: no continuation is captured. Otherwise it parks, and
   the loop takes the step with what was decided, so no draw, hook call
   or exception happens twice. At the step limit the loop raises; an
   unwinding thread takes no step. *)
let point () =
  match !current_sched with
  | None -> ()
  | Some s ->
      if s.aborting then ()
      else if s.steps >= s.max_steps then Effect.perform Yield
      else begin
        let me = s.current in
        match decide s ~enabled:(s.enabled lor (1 lsl me)) ~last:me with
        | choice ->
            if choice <> me || s.crash then begin
              s.handed <- choice;
              Effect.perform Yield
            end
        | exception exn ->
            s.raised <- Some exn;
            Effect.perform Yield
      end

(* Unwind any still-suspended fibers so their resources are released; their
   exceptions are deliberately not recorded. *)
let cleanup s =
  s.aborting <- true;
  for i = 0 to s.n_threads - 1 do
    let th = s.threads.(i) in
    match th.state with
    | Suspended k | Waiting (_, k) -> (
        th.state <- Finished;
        try Effect.Deep.discontinue k Exit with _ -> ())
    | Not_started _ -> th.state <- Finished
    | Running | Finished -> ()
  done

let run ?(max_steps = 10_000_000) ?(record = false)
    ?(inject_crash = fun ~tid:_ ~step:_ -> false) strategy main =
  if active () then invalid_arg "Sched.run: nested simulation";
  let repro =
    Printf.sprintf "strategy=%s max_steps=%d" (Strategy.describe strategy)
      max_steps
  in
  let s =
    {
      threads = Array.make 8 { id = 0; name = "main"; state = Finished };
      n_threads = 0;
      current = -1;
      enabled = 0;
      steps = 0;
      per_thread = Array.make 8 0;
      failure = None;
      aborting = false;
      record;
      trace_buf = [];
      crashed = [];
      max_steps;
      strategy = Strategy.start strategy ~expected_steps:max_steps;
      inject_crash;
      crash = false;
      handed = -1;
      raised = None;
    }
  in
  ignore (add_thread s "main" main);
  current_sched := Some s;
  let result =
    try
      let rec loop last =
        match (s.failure, s.raised) with
        | Some _, _ -> ()
        | None, Some exn -> raise exn
        | None, None ->
            let enabled = s.enabled in
            if enabled = 0 then begin
              let unfinished = ref [] in
              for i = s.n_threads - 1 downto 0 do
                if s.threads.(i).state <> Finished then
                  unfinished := i :: !unfinished
              done;
              if !unfinished <> [] then
                raise (Stuck { unfinished = !unfinished })
            end
            else begin
              let choice =
                if s.handed >= 0 then begin
                  let choice = s.handed in
                  s.handed <- -1;
                  choice
                end
                else begin
                  if s.steps >= s.max_steps then
                    raise (Step_limit_exceeded s.steps);
                  decide s ~enabled ~last
                end
              in
              let th = s.threads.(choice) in
              if s.crash then begin
                (* Crash injection: the thread is parked at a yield point and
                   simply never runs again — no unwinding, no cleanup, exactly
                   like [kill]. *)
                finish s th;
                s.crashed <- choice :: s.crashed
              end
              else begin
                s.current <- choice;
                step_thread s th;
                s.current <- -1
              end;
              loop choice
            end
      in
      loop (-1);
      Ok ()
    with exn ->
      let bt = Printexc.get_raw_backtrace () in
      Error (exn, bt)
  in
  cleanup s;
  current_sched := None;
  let trace =
    if record then Some (Array.of_list (List.rev s.trace_buf)) else None
  in
  match result with
  | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | Ok () -> (
      match s.failure with
      | Some (tid, exn) -> raise (Thread_failure { tid; exn; trace; repro })
      | None ->
          {
            steps = s.steps;
            per_thread_steps = Array.sub s.per_thread 0 s.n_threads;
            trace;
            crashed = List.rev s.crashed;
          })
