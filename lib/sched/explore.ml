type result =
  | Ok of { schedules : int }
  | Violation of {
      schedules : int;
      schedule : int array;
      trace : Trace.t;
      exn : exn;
    }
  | Budget_exhausted of { schedules : int }

let run_one ~max_steps prefix body =
  Sched.run ~max_steps ~record:true
    (Strategy.Scripted { prefix; tail_seed = None })
    body

let check ?(max_steps = 100_000) ?max_preemptions ?(max_schedules = 200_000)
    ~body ~check () =
  (* Work-list of forced prefixes. Standard stateless DFS: children are
     generated only at positions at or beyond the forced prefix length, so
     every schedule is executed exactly once. *)
  let bound = Option.value max_preemptions ~default:max_int in
  let stack = Stack.create () in
  Stack.push [||] stack;
  let executed = ref 0 in
  let violation = ref None in
  (try
     while (not (Stack.is_empty stack)) && !violation = None do
       if !executed >= max_schedules then raise Stdlib.Exit;
       let prefix = Stack.pop stack in
       incr executed;
       let outcome =
         match run_one ~max_steps prefix body with
         | o -> (
             match check () with
             | () -> Stdlib.Ok o
             | exception exn -> Stdlib.Error (exn, o.Sched.trace))
         | exception Sched.Thread_failure { exn; trace; _ } ->
             Stdlib.Error (exn, trace)
         | exception (Strategy.Script_diverged _ as exn) -> raise exn
         | exception exn -> Stdlib.Error (exn, None)
       in
       match outcome with
       | Stdlib.Error (exn, trace) ->
           let trace = Option.value trace ~default:[||] in
           violation :=
             Some
               (Violation
                  {
                    schedules = !executed;
                    schedule = Trace.chosen trace;
                    trace;
                    exn;
                  })
       | Stdlib.Ok o ->
           let trace = Option.get o.Sched.trace in
           let chosen = Trace.chosen trace in
           let n = Array.length chosen in
           (* Whether running [alt] at step [i] preempts the thread that
              ran step [i - 1] while it was still enabled. *)
           let preempts i alt =
             i > 0
             && alt <> chosen.(i - 1)
             && trace.(i).Trace.enabled land (1 lsl chosen.(i - 1)) <> 0
           in
           (* [before.(i)]: the preemptions in the first [i] steps. *)
           let before = Array.make (n + 1) 0 in
           for i = 0 to n - 1 do
             before.(i + 1) <- before.(i) + Bool.to_int (preempts i chosen.(i))
           done;
           (* Push deeper branch points first-last so the DFS explores in a
              stable order; each child forces one alternative decision. *)
           for i = n - 1 downto Array.length prefix do
             List.iter
               (fun alt ->
                 if
                   alt <> chosen.(i)
                   && before.(i) + Bool.to_int (preempts i alt) <= bound
                 then begin
                   let child = Array.sub chosen 0 (i + 1) in
                   child.(i) <- alt;
                   Stack.push child stack
                 end)
               (Trace.enabled_list trace.(i))
           done
     done
   with Stdlib.Exit -> ());
  match !violation with
  | Some v -> v
  | None ->
      if Stack.is_empty stack then Ok { schedules = !executed }
      else Budget_exhausted { schedules = !executed }

let replay ?(max_steps = 100_000) schedule body =
  match
    Sched.run ~max_steps ~record:true
      (Strategy.Scripted { prefix = schedule; tail_seed = None })
      body
  with
  | outcome -> Option.get outcome.Sched.trace
  | exception Sched.Thread_failure { trace; _ } ->
      Option.value trace ~default:[||]
