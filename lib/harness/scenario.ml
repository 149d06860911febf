module History = Lfrc_linearize.History
module Spec = Lfrc_structures.Spec
module Sched = Lfrc_sched.Sched

(* The shared experiment configuration. Every experiment's [run] takes one
   of these instead of hard-coding its own knobs; each experiment maps the
   shared fields onto its workload (clamping where its matrix would
   otherwise explode — E11 documents its clamp). *)
type config = {
  threads : int;  (* worker-thread ceiling for multi-threaded experiments *)
  ops_per_thread : int;  (* per-worker operation count *)
  iters : int;  (* single-threaded timing-loop iterations (E1, E5) *)
  seed : int;  (* base seed: schedules, op mixes, value streams *)
  fault : Lfrc_faults.Fault_plan.spec option;
      (* override E11's built-in fault matrix with one spec *)
  metrics : bool;  (* collect a metrics snapshot alongside the table *)
  trace_capacity : int;  (* tracer ring size; 0 = tracing off *)
  profile : bool;  (* attribute retries/latency to call sites *)
  blame : bool;  (* attribute failed CAS/DCAS to the winning write *)
  rc_mode : Lfrc_core.Env.rc_mode;  (* count delivery of every LFRC env *)
}

(* Parked-adjustment budget used in deferred-rc mode: large enough that
   flushes amortize, small enough that a structure's hot window of dead
   objects turns over well inside a worker's op script. *)
let deferred_rc_epoch = 64

(* Weight batch minted per fetch-add in wait-free mode: big enough that
   borrow/share fast paths dominate, small enough that the exhaustion
   fallback is actually exercised by long runs. *)
let wait_free_weight = 64

let rc_mode_label = function
  | Lfrc_core.Env.Eager -> "eager"
  | Lfrc_core.Env.Deferred_rc { epoch } ->
      Printf.sprintf "deferred-rc(%d)" epoch
  | Lfrc_core.Env.Wait_free { weight } -> Printf.sprintf "wait-free(%d)" weight

let default_config =
  {
    threads = 8;
    ops_per_thread = 1_500;
    iters = 200_000;
    seed = 11;
    fault = None;
    metrics = true;
    trace_capacity = 0;
    profile = false;
    blame = false;
    rc_mode = Lfrc_core.Env.Eager;
  }

type op = Push_left of int | Push_right of int | Pop_left | Pop_right

type res = Done | Popped of int option

let pp_op ppf = function
  | Push_left v -> Format.fprintf ppf "push_left %d" v
  | Push_right v -> Format.fprintf ppf "push_right %d" v
  | Pop_left -> Format.fprintf ppf "pop_left"
  | Pop_right -> Format.fprintf ppf "pop_right"

let pp_res ppf = function
  | Done -> Format.fprintf ppf "()"
  | Popped None -> Format.fprintf ppf "empty"
  | Popped (Some v) -> Format.fprintf ppf "%d" v

module Deque_spec = struct
  type state = Spec.Deque.t
  type nonrec op = op
  type nonrec res = res

  let init = Spec.Deque.empty

  let apply state = function
    | Push_left v -> (Spec.Deque.push_left v state, Done)
    | Push_right v -> (Spec.Deque.push_right v state, Done)
    | Pop_left -> (
        match Spec.Deque.pop_left state with
        | None -> (state, Popped None)
        | Some (v, state') -> (state', Popped (Some v)))
    | Pop_right -> (
        match Spec.Deque.pop_right state with
        | None -> (state, Popped None)
        | Some (v, state') -> (state', Popped (Some v)))

  let equal_res a b =
    match (a, b) with
    | Done, Done -> true
    | Popped x, Popped y -> x = y
    | Done, Popped _ | Popped _, Done -> false

  let pp_op = pp_op
  let pp_res = pp_res
end

module Deque_checker = Lfrc_linearize.Checker.Make (Deque_spec)

type outcome = {
  ok : bool;
  history : (op, res) History.event list;
  steps : int;
}

(* Build the simulation body for one scenario execution. Returns the body
   and a handle to the history it fills. Everything (heap, deque) is
   created fresh inside the body so forced re-executions are
   deterministic. *)
let make_body (module D : Lfrc_structures.Container_intf.DEQUE) ?rc_mode ~preload
    ~threads history_out =
  let exec_op h = function
    | Push_left v ->
        D.push_left h v;
        Done
    | Push_right v ->
        D.push_right h v;
        Done
    | Pop_left -> Popped (D.pop_left h)
    | Pop_right -> Popped (D.pop_right h)
  in
  fun () ->
  let heap = Lfrc_simmem.Heap.create ~name:"scenario" () in
  let env =
    Lfrc_core.Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step
      ~gc_threshold:64 ?rc_mode heap
  in
  let history = History.create () in
  history_out := Some (history, heap);
  let d = D.create env in
  let h0 = D.register d in
  List.iter (fun v -> D.push_right h0 v) preload;
  (* Record the preloads as already-linearized pushes. *)
  List.iter
    (fun v ->
      ignore (History.record history ~thread:0 (Push_right v) (fun () -> Done)))
    preload;
  let tids =
    List.mapi
      (fun i ops ->
        Sched.spawn
          ~name:(Printf.sprintf "w%d" (i + 1))
          (fun () ->
            let h = D.register d in
            List.iter
              (fun op ->
                ignore
                  (History.record history ~thread:(i + 1) op (fun () ->
                       exec_op h op)))
              ops;
            D.unregister h))
      threads
  in
  Sched.join tids;
  let rec drain () =
    match
      History.record history ~thread:0 Pop_left (fun () ->
          Popped (D.pop_left h0))
    with
    | Popped None -> ()
    | _ -> drain ()
  in
  drain ();
  D.unregister h0;
  D.destroy d

let judge ~gc_final history_out =
  match !history_out with
  | None -> failwith "scenario: no history recorded"
  | Some (history, heap) -> (
      (* GC-dependent deques rely on the tracing collector for reclaim;
         give it one quiescent run before the leak check. *)
      if gc_final then ignore (Lfrc_simmem.Gc_trace.collect heap);
      Lfrc_simmem.Report.assert_no_leaks heap;
      let evs = History.events history in
      match Deque_checker.check_events evs with
      | Deque_checker.Linearizable _ -> ()
      | Deque_checker.Not_linearizable ->
          let buf = Buffer.create 256 in
          let ppf = Format.formatter_of_buffer buf in
          History.pp ~pp_op ~pp_res ppf history;
          Format.pp_print_flush ppf ();
          failwith ("history not linearizable:\n" ^ Buffer.contents buf))

let body_and_check (module D : Lfrc_structures.Container_intf.DEQUE)
    ?(gc_final = false) ?rc_mode ?(preload = []) ~threads () =
  let history_out = ref None in
  let body = make_body (module D) ?rc_mode ~preload ~threads history_out in
  let check () = judge ~gc_final history_out in
  (body, check)

let run (module D : Lfrc_structures.Container_intf.DEQUE) ?(gc_final = false)
    ?rc_mode ?(preload = []) ~threads strategy =
  let history_out = ref None in
  let body = make_body (module D) ?rc_mode ~preload ~threads history_out in
  let outcome = Sched.run ~max_steps:1_000_000 strategy body in
  let ok =
    match judge ~gc_final history_out with () -> true | exception _ -> false
  in
  let history =
    match !history_out with
    | Some (h, _) -> History.events h
    | None -> []
  in
  { ok; history; steps = outcome.Sched.steps }
