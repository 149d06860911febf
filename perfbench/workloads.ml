(* The benchmark's workloads and the round that runs one of them.

   A round builds a fresh heap, environment and structure, prefills it
   (the timed set-up), runs every worker's closed loop (the timed phase:
   each worker issues its next op when the previous one returns), then
   drains, destroys and checks the structure. The driver generates every
   input — op mix, values, keys — from the seed before the set-up
   starts; the structures only see the generated inputs. *)

module Heap = Lfrc_simmem.Heap
module Report = Lfrc_simmem.Report
module Env = Lfrc_core.Env
module Lfrc = Lfrc_core.Lfrc
module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy
module Rng = Lfrc_util.Rng
module Obs = Lfrc_obs.Obs
module Metrics = Lfrc_obs.Metrics
module Dcas = Lfrc_atomics.Dcas

type structure = Treiber | Snark | Skiplist | Msqueue

type spec = {
  name : string;
  why : string;
  structure : structure;
  native : bool;  (** real domains over [Striped_lock], not the simulator *)
  rc_mode : Env.rc_mode;
  obs : bool;  (** the Obs bundle is on in the workload's own config *)
  threads : int;
  ops_per_thread : int;  (** per round *)
  prefill : int;
}

let key_space = 2048

let all =
  [
    {
      name = "sim-treiber";
      why =
        "Figure 2's contended CAS-tier hot path: sched, atomics and eager rc \
         retry loops do most of the work";
      structure = Treiber;
      native = false;
      rc_mode = Env.Eager;
      obs = false;
      threads = 4;
      ops_per_thread = 12_500;
      prefill = 1024;
    };
    {
      name = "sim-treiber-obs";
      why =
        "sim-treiber with the metrics+profile+blame bundle on, so an obs \
         change moves this workload only";
      structure = Treiber;
      native = false;
      rc_mode = Env.Eager;
      obs = true;
      threads = 4;
      ops_per_thread = 4_000;
      prefill = 1024;
    };
    {
      name = "sim-snark-waitfree";
      why =
        "the paper's DCAS deque under wait-free weighted counts: fetch-add \
         and weight borrowing instead of rc CAS loops";
      structure = Snark;
      native = false;
      rc_mode = Env.Wait_free { weight = 64 };
      obs = false;
      threads = 4;
      ops_per_thread = 15_000;
      prefill = 64;
    };
    {
      name = "sim-skiplist-read";
      why =
        "read-mostly long traversals under deferred rc: load/destroy along \
         paths and simmem costs that contended workloads hide";
      structure = Skiplist;
      native = false;
      rc_mode = Env.Deferred_rc { epoch = 64 };
      obs = false;
      threads = 4;
      ops_per_thread = 1_250;
      prefill = 1024;
    };
    {
      name = "native-msqueue";
      why =
        "what a library user on hardware sees: 2 real domains, where the \
         simulator's scheduler is bypassed";
      structure = Msqueue;
      native = true;
      rc_mode = Env.Eager;
      obs = false;
      threads = 2;
      ops_per_thread = 100_000;
      prefill = 1024;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let op_names = function
  | Treiber -> [| "push"; "pop" |]
  | Snark -> [| "push_left"; "push_right"; "pop_left"; "pop_right" |]
  | Skiplist -> [| "contains"; "insert"; "remove" |]
  | Msqueue -> [| "enqueue"; "dequeue" |]

(* Ops come in shuffled blocks that hold the mix exactly, so a
   structure's size stays within a block of its prefill instead of
   random-walking: peak live objects then depend little on the seed. *)
let block = function
  | Treiber | Msqueue -> [| 0; 0; 0; 0; 1; 1; 1; 1 |]
  | Snark -> [| 0; 1; 2; 3; 0; 1; 2; 3 |]
  | Skiplist -> Array.init 20 (fun i -> max 0 (i - 17))

(* {2 Observability configurations} *)

let metrics_only () = { Obs.disabled with Obs.metrics = Metrics.create () }

(* Profile and blame keep per-simulated-thread frames, so on real domains
   the bundle is the metrics registry alone. *)
let bundle spec =
  if spec.native then metrics_only ()
  else Obs.create ~profile:true ~blame:true ()

let own_obs spec = if spec.obs then bundle spec else Obs.disabled
let counting_obs spec = if spec.obs then bundle spec else metrics_only ()
let toggled_obs spec = if spec.obs then Obs.disabled else bundle spec

(* {2 Inputs} *)

type inputs = {
  plans : int array array;  (** per worker: op codes *)
  keys : int array array;  (** per worker: the key of each op (skiplist) *)
  prefill_keys : int array;
  lat : int array array;  (** per worker: filled with each op's latency *)
}

let rng ~seed ~stream = Rng.create ((seed * 1_000_003) + (stream * 7919) + 17)

let inputs spec ~seed =
  let n = spec.ops_per_thread in
  let plan w =
    let r = rng ~seed ~stream:(w + 1) and b = Array.copy (block spec.structure) in
    let out = Array.make n 0 and len = Array.length b in
    let i = ref 0 in
    while !i < n do
      Rng.shuffle r b;
      Array.blit b 0 out !i (min len (n - !i));
      i := !i + len
    done;
    out
  in
  let skiplist = spec.structure = Skiplist in
  let keys w =
    if not skiplist then [||]
    else
      let r = rng ~seed ~stream:(100 + w) in
      Array.init n (fun _ -> 1 + Rng.int r key_space)
  in
  let prefill_keys =
    if not skiplist then [||]
    else begin
      let all = Array.init key_space (fun k -> k + 1) in
      Rng.shuffle (rng ~seed ~stream:0) all;
      Array.sub all 0 spec.prefill
    end
  in
  {
    plans = Array.init spec.threads plan;
    keys = Array.init spec.threads keys;
    prefill_keys;
    lat = Array.init spec.threads (fun _ -> Array.make n 0);
  }

(* The [i]th value of a producer, distinct within a round: producer 0 is
   the prefill, worker [w] is producer [w + 1]. *)
let value ~producer i = (producer lsl 32) lor i

(* Order-free multiset digest: a count plus a sum of mixed values, so a
   lost, duplicated or corrupted value shows. A workload keeps one per
   worker (no sharing across domains) plus one, at index [threads], for
   the prefill and the final drain. *)
module Tally = struct
  type t = { mutable n : int; mutable h : int }

  let per_worker threads = Array.init (threads + 1) (fun _ -> { n = 0; h = 0 })

  let mix v =
    let z = (v lxor (v lsr 31)) * 0x3f58476d1ce4e5b9 in
    let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
    z lxor (z lsr 33)

  let add t v =
    t.n <- t.n + 1;
    t.h <- t.h + mix v

  let check ~what ins outs =
    let total = Array.fold_left (fun (n, h) t -> (n + t.n, h + t.h)) (0, 0) in
    let (n_in, h_in), (n_out, h_out) = (total ins, total outs) in
    if n_in = n_out && h_in = h_out then Ok ()
    else
      Error
        (Printf.sprintf "%s not conserved: %d put in, %d taken out (digests %s)"
           what n_in n_out (if h_in = h_out then "equal" else "differ"))
end

let rec drain take f =
  match take () with
  | Some v ->
      f v;
      drain take f
  | None -> ()

(* {2 A round} *)

type instance = {
  work : int -> unit;  (** run worker [w]'s op stream *)
  finish : unit -> (unit, string) result;
      (** drain, destroy, and check the structure's contents *)
  empty : int array;  (** per worker: ops that found nothing *)
}

type round = {
  setup_s : float;
  wall_s : float;  (** the timed phase *)
  ops : int;
  words : float;  (** minor words allocated in the timed phase, all domains *)
  lat_p50_ns : int;  (** median wall-clock latency of the round's ops *)
  peak_live : int;
  steps : int;  (** scheduler steps of the timed phase; 0 on real domains *)
  allocs : int;  (** heap allocations in the timed phase *)
  frees : int;
  empty : int;
  error : string option;
  counters : (string * int) list;  (** the metrics registry's counters *)
}

(* Everything in a round that is exact under the simulator. *)
let counts r =
  [
    ("round.steps", r.steps);
    ("round.allocs", r.allocs);
    ("round.frees", r.frees);
    ("round.peak_live", r.peak_live);
    ("round.empty", r.empty);
  ]
  @ r.counters

let max_steps = 1_000_000_000

(* Run [f] as the only thread of a simulation. *)
let sim f =
  let r = ref None in
  ignore (Sched.run ~max_steps Strategy.Round_robin (fun () -> r := Some (f ())));
  Option.get !r

(* After [destroy], every mode must leave an empty heap with exact
   counts once deferred work is flushed. *)
let settle env heap =
  ignore (Lfrc.flush env);
  match Report.assert_no_leaks heap with
  | exception Failure m -> Error m
  | () -> (
      match Report.check_rc_exact heap with
      | [] -> Ok ()
      | v :: _ -> Error (Format.asprintf "rc not exact: %a" Report.pp_violation v))

let lat_median lat =
  let all = Array.concat (Array.to_list lat) in
  Array.sort compare all;
  Span.percentile all 0.50

module type INSTR = sig
  include Lfrc_core.Ops_intf.OPS_DCAS

  val thread_start : int -> unit
  val thread_stop : unit -> unit
  val op_start : code:int -> t0:int -> unit
  val op_stop : t1:int -> unit
end

module Plain = struct
  include Lfrc_core.Lfrc_ops

  let thread_start _ = ()
  let thread_stop () = ()
  let op_start ~code:_ ~t0:_ = ()
  let op_stop ~t1:_ = ()
end

module Make (I : INSTR) = struct
  module Stack = Lfrc_structures.Treiber.Make (I)
  module Deque = Lfrc_structures.Snark_fixed.Make (I)
  module Set = Lfrc_structures.Skiplist.Make (I)
  module Queue = Lfrc_structures.Msqueue.Make (I)

  let drive ~w ~plan ~lat f =
    I.thread_start w;
    for i = 0 to Array.length plan - 1 do
      let code = plan.(i) in
      let t0 = Span.now () in
      I.op_start ~code ~t0;
      f i code;
      let t1 = Span.now () in
      I.op_stop ~t1;
      lat.(i) <- t1 - t0
    done;
    I.thread_stop ()

  let treiber spec inp env =
    let s = Stack.create env in
    let threads = spec.threads in
    let ins = Tally.per_worker threads and outs = Tally.per_worker threads in
    let empty = Array.make threads 0 in
    let h = Stack.register s in
    for i = 1 to spec.prefill do
      let v = value ~producer:0 i in
      Stack.push h v;
      Tally.add ins.(threads) v
    done;
    Stack.unregister h;
    let work w =
      let h = Stack.register s in
      drive ~w ~plan:inp.plans.(w) ~lat:inp.lat.(w) (fun i code ->
          if code = 0 then begin
            let v = value ~producer:(w + 1) i in
            Stack.push h v;
            Tally.add ins.(w) v
          end
          else
            match Stack.pop h with
            | Some v -> Tally.add outs.(w) v
            | None -> empty.(w) <- empty.(w) + 1);
      Stack.unregister h
    in
    let finish () =
      let h = Stack.register s in
      drain (fun () -> Stack.pop h) (Tally.add outs.(threads));
      Stack.unregister h;
      Stack.destroy s;
      Tally.check ~what:"stack values" ins outs
    in
    { work; finish; empty }

  let snark spec inp env =
    let d = Deque.create env in
    let threads = spec.threads in
    let ins = Tally.per_worker threads and outs = Tally.per_worker threads in
    let empty = Array.make threads 0 in
    let h = Deque.register d in
    for i = 1 to spec.prefill do
      let v = value ~producer:0 i in
      if i land 1 = 0 then Deque.push_left h v else Deque.push_right h v;
      Tally.add ins.(threads) v
    done;
    Deque.unregister h;
    let work w =
      let h = Deque.register d in
      let took w = function
        | Some v -> Tally.add outs.(w) v
        | None -> empty.(w) <- empty.(w) + 1
      in
      drive ~w ~plan:inp.plans.(w) ~lat:inp.lat.(w) (fun i code ->
          match code with
          | 0 | 1 ->
              let v = value ~producer:(w + 1) i in
              if code = 0 then Deque.push_left h v else Deque.push_right h v;
              Tally.add ins.(w) v
          | 2 -> took w (Deque.pop_left h)
          | _ -> took w (Deque.pop_right h));
      Deque.unregister h
    in
    let finish () =
      let h = Deque.register d in
      (* Drain from both ends: on some seeds (e.g. --quick --seed 16) a
         quiescent pop_left reports empty while pop_right still finds
         values, in every rc mode. *)
      let take () =
        match Deque.pop_left h with None -> Deque.pop_right h | some -> some
      in
      drain take (Tally.add outs.(threads));
      Deque.unregister h;
      Deque.destroy d;
      Tally.check ~what:"deque values" ins outs
    in
    { work; finish; empty }

  let skiplist spec ~seed inp env =
    let s = Set.create env in
    let member = Array.make (key_space + 1) 0 in
    let h = Set.register ~seed s in
    Array.iter
      (fun k ->
        ignore (Set.insert h k);
        member.(k) <- 1)
      inp.prefill_keys;
    Set.unregister h;
    let net = Array.init spec.threads (fun _ -> Array.make (key_space + 1) 0) in
    let empty = Array.make spec.threads 0 in
    let work w =
      let h = Set.register ~seed:(seed + w + 1) s in
      let keys = inp.keys.(w) and net = net.(w) in
      drive ~w ~plan:inp.plans.(w) ~lat:inp.lat.(w) (fun i code ->
          let k = keys.(i) in
          match code with
          | 0 -> if not (Set.contains h k) then empty.(w) <- empty.(w) + 1
          | 1 -> if Set.insert h k then net.(k) <- net.(k) + 1
          | _ -> if Set.remove h k then net.(k) <- net.(k) - 1);
      Set.unregister h
    in
    let finish () =
      let h = Set.register s in
      let final = Set.to_list h in
      Set.unregister h;
      Set.destroy s;
      Array.iter (Array.iteri (fun k d -> member.(k) <- member.(k) + d)) net;
      let rec sorted = function
        | a :: (b :: _ as tl) -> a < b && sorted tl
        | _ -> true
      in
      let expected = List.filter (fun k -> member.(k) = 1) (List.init key_space succ) in
      if not (sorted final) then Error "skiplist to_list not strictly ascending"
      else if Array.exists (fun m -> m < 0 || m > 1) member then
        Error "skiplist: a key's successful inserts and removes do not alternate"
      else if final <> expected then
        Error
          (Printf.sprintf
             "skiplist holds %d keys, the net of successful inserts and \
              removes is %d"
             (List.length final) (List.length expected))
      else Ok ()
    in
    { work; finish; empty }

  (* Per-producer FIFO: every consumer must see each producer's values in
     the order they were enqueued. *)
  let msqueue spec inp env =
    let q = Queue.create env in
    let threads = spec.threads in
    let ins = Tally.per_worker threads and outs = Tally.per_worker threads in
    let fifo_breaks = Array.make (threads + 1) 0 in
    let empty = Array.make threads 0 in
    let h = Queue.register q in
    for i = 1 to spec.prefill do
      let v = value ~producer:0 i in
      Queue.enqueue h v;
      Tally.add ins.(threads) v
    done;
    Queue.unregister h;
    let consumer c =
      let last = Array.make (threads + 1) 0 in
      fun v ->
        let p = v lsr 32 and seq = v land 0xffff_ffff in
        if seq <= last.(p) then fifo_breaks.(c) <- fifo_breaks.(c) + 1;
        last.(p) <- seq;
        Tally.add outs.(c) v
    in
    let work w =
      let h = Queue.register q in
      let took = consumer w in
      drive ~w ~plan:inp.plans.(w) ~lat:inp.lat.(w) (fun i code ->
          if code = 0 then begin
            let v = value ~producer:(w + 1) (i + 1) in
            Queue.enqueue h v;
            Tally.add ins.(w) v
          end
          else
            match Queue.dequeue h with
            | Some v -> took v
            | None -> empty.(w) <- empty.(w) + 1);
      Queue.unregister h
    in
    let finish () =
      let h = Queue.register q in
      drain (fun () -> Queue.dequeue h) (consumer threads);
      Queue.unregister h;
      Queue.destroy q;
      let breaks = Array.fold_left ( + ) 0 fifo_breaks in
      if breaks > 0 then
        Error (Printf.sprintf "queue broke per-producer FIFO %d times" breaks)
      else Tally.check ~what:"queue values" ins outs
    in
    { work; finish; empty }

  let build spec ~seed inp env =
    match spec.structure with
    | Treiber -> treiber spec inp env
    | Snark -> snark spec inp env
    | Skiplist -> skiplist spec ~seed inp env
    | Msqueue -> msqueue spec inp env

  let timed_sim spec ~seed inst =
    let w0 = Gc.minor_words () in
    let t0 = Span.now () in
    let outcome =
      Sched.run ~max_steps (Strategy.Random seed) (fun () ->
          Sched.join
            (List.init spec.threads (fun w -> Sched.spawn (fun () -> inst.work w))))
    in
    let t1 = Span.now () in
    (t1 - t0, Gc.minor_words () -. w0, outcome.Sched.steps)

  (* The main domain runs worker 0 and spawns the rest; all start
     together once every domain is up. *)
  let timed_native spec inst =
    let words = Array.make spec.threads 0. in
    let ready = Atomic.make 0 and go = Atomic.make false in
    let body w () =
      Atomic.incr ready;
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      let m0 = Gc.minor_words () in
      inst.work w;
      words.(w) <- Gc.minor_words () -. m0
    in
    let others = List.init (spec.threads - 1) (fun w -> Domain.spawn (body (w + 1))) in
    while Atomic.get ready < spec.threads - 1 do
      Domain.cpu_relax ()
    done;
    let t0 = Span.now () in
    Atomic.set go true;
    Fun.protect ~finally:(fun () -> List.iter Domain.join others) (body 0);
    let t1 = Span.now () in
    (t1 - t0, Array.fold_left ( +. ) 0. words, 0)

  (* Heap, environment, structure and prefill: the timed set-up. *)
  let set_up spec ~seed ~obs inp =
    Gc.full_major ();
    let t0 = Span.now () in
    let heap = Heap.create ~name:spec.name () in
    let env =
      Env.create
        ~dcas_impl:(if spec.native then Dcas.Striped_lock else Dcas.Atomic_step)
        ~rc_mode:spec.rc_mode ~metrics:obs.Obs.metrics ~tracer:obs.Obs.tracer
        ~lineage:obs.Obs.lineage ~profile:obs.Obs.profile ~blame:obs.Obs.blame
        heap
    in
    let inst =
      if spec.native then build spec ~seed inp env
      else sim (fun () -> build spec ~seed inp env)
    in
    (Span.now () - t0, heap, env, inst)

  let check spec (_, heap, env, inst) =
    let go () =
      match inst.finish () with Ok () -> settle env heap | Error _ as e -> e
    in
    match if spec.native then go () else sim go with
    | Ok () -> None
    | Error m -> Some m
    | exception e -> Some (Printexc.to_string e)

  (* A round sets up [setups] times, checking and discarding all but the
     last structure, and reports the median set-up time: one set-up is
     only milliseconds for most workloads. *)
  let round ?(setups = 1) spec ~seed ~obs =
    let inp = inputs spec ~seed in
    let spare =
      List.init (setups - 1) (fun _ ->
          let ((ns, _, _, _) as s) = set_up spec ~seed ~obs inp in
          (ns, check spec s))
    in
    let ((setup_ns, heap, _, inst) as s) = set_up spec ~seed ~obs inp in
    let before = Heap.stats heap in
    Span.watched := Some heap;
    let wall_ns, words, steps =
      if spec.native then timed_native spec inst else timed_sim spec ~seed inst
    in
    Span.watched := None;
    let after = Heap.stats heap in
    let error =
      match check spec s with
      | Some _ as e -> e
      | None -> List.find_map snd spare
    in
    let setup_ns =
      let a = Array.of_list (setup_ns :: List.map fst spare) in
      Array.sort compare a;
      a.(Array.length a / 2)
    in
    {
      setup_s = float setup_ns /. 1e9;
      wall_s = float wall_ns /. 1e9;
      ops = spec.threads * spec.ops_per_thread;
      words;
      lat_p50_ns = lat_median inp.lat;
      peak_live = after.Heap.peak_live;
      steps;
      allocs = after.Heap.allocs - before.Heap.allocs;
      frees = after.Heap.frees - before.Heap.frees;
      empty = Array.fold_left ( + ) 0 inst.empty;
      error;
      counters = (Metrics.snapshot obs.Obs.metrics).Metrics.counters;
    }
end

module Untraced = Make (Plain)
module Traced = Make (Traced_ops)
