(* Per-thread span and histogram recorder for the traced pass.

   Each simulated thread (or real domain) that runs workload ops owns one
   [thread] record, found through [current]: recording takes no lock and
   never reaches a scheduler yield point, so a traced simulator run takes
   exactly the schedule of an untraced one with the same seed.

   Histograms keep every sample. Spans (name, start and end in monotonic
   ns, scheduler steps at both ends, parent, op id) are kept only for
   every [sample_every]th structure op and the OPS calls it makes, which
   bounds their memory. *)

module Sched = Lfrc_sched.Sched
module Heap = Lfrc_simmem.Heap

let now () = Int64.to_int (Monotonic_clock.now ())

(* Growable int sample buffer. *)
module Hist = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let add h v =
    if h.n = Array.length h.a then begin
      let a = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    Array.unsafe_set h.a h.n v;
    h.n <- h.n + 1

  let count h = h.n

  let sorted hs =
    let out = Array.make (List.fold_left (fun n h -> n + h.n) 0 hs) 0 in
    ignore
      (List.fold_left
         (fun off h ->
           Array.blit h.a 0 out off h.n;
           off + h.n)
         0 hs);
    Array.sort compare out;
    out
end

(* Nearest-rank percentile of an ascending array; 0 when empty. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

(* The OPS calls [Traced_ops] wraps, by index. *)
let call_names =
  [| "load"; "store"; "store_alloc"; "copy"; "set_null"; "retire"; "cas";
     "dcas"; "dcas_ptr_val"; "alloc"; "try_alloc"; "read_val"; "write_val";
     "cas_val"; "flush" |]

let n_calls = Array.length call_names
let sample_every = 16

(* A kept span: 6 ints in [spans]. [kind] >= 0 is an OPS call (index into
   [call_names]) whose parent is op [id]; [kind] < 0 is structure op
   [-kind - 1] (index into the workload's op names) with id [id] and no
   parent. *)
let span_width = 6

type thread = {
  live : bool;
  tid : int;
  calls : int array;
  call_ns : Hist.t array;
  call_steps : Hist.t array;
  op_ns : Hist.t;
  op_steps : Hist.t;
  mutable ops : int;
  mutable self_ns : int;  (* summed op span minus its child OPS spans *)
  mutable live_cells_peak : int;
  mutable op_id : int;
  mutable op_code : int;
  mutable op_t0 : int;
  mutable op_s0 : int;
  mutable child_ns : int;
  mutable sampled : bool;
  mutable c_t0 : int;
  mutable c_s0 : int;
  spans : Hist.t;
}

let make ~live tid =
  {
    live;
    tid;
    calls = Array.make n_calls 0;
    call_ns = Array.init n_calls (fun _ -> Hist.create ());
    call_steps = Array.init n_calls (fun _ -> Hist.create ());
    op_ns = Hist.create ();
    op_steps = Hist.create ();
    ops = 0;
    self_ns = 0;
    live_cells_peak = 0;
    op_id = 0;
    op_code = 0;
    op_t0 = 0;
    op_s0 = 0;
    child_ns = 0;
    sampled = false;
    c_t0 = 0;
    c_s0 = 0;
    spans = Hist.create ();
  }

(* Calls made outside any attached thread (structure set-up and
   teardown) land here and are dropped. *)
let null = make ~live:false (-1)

let registry : thread list ref = ref []
let registry_lock = Mutex.create ()

(* The heap whose live-cell count is sampled after every op. *)
let watched : Heap.t option ref = ref None

let sim_slots = Array.make 64 null
let dls = Domain.DLS.new_key (fun () -> null)

let current () =
  if Sched.active () then
    let t = Sched.tid () in
    if t < Array.length sim_slots then Array.unsafe_get sim_slots t else null
  else Domain.DLS.get dls

let attach tid =
  let th = make ~live:true tid in
  Mutex.lock registry_lock;
  registry := th :: !registry;
  Mutex.unlock registry_lock;
  if Sched.active () then sim_slots.(Sched.tid ()) <- th
  else Domain.DLS.set dls th

let detach () =
  if Sched.active () then sim_slots.(Sched.tid ()) <- null
  else Domain.DLS.set dls null

(* Every thread recorded since the last call, in attach order. *)
let collect () =
  Mutex.lock registry_lock;
  let ths = List.rev !registry in
  registry := [];
  Mutex.unlock registry_lock;
  ths

let keep th kind t0 t1 s0 s1 id =
  let s = th.spans in
  Hist.add s kind;
  Hist.add s t0;
  Hist.add s t1;
  Hist.add s s0;
  Hist.add s s1;
  Hist.add s id

let enter th =
  if th.live then begin
    th.c_t0 <- now ();
    th.c_s0 <- Sched.steps_so_far ()
  end

let leave th k =
  if th.live then begin
    let t1 = now () and s1 = Sched.steps_so_far () in
    let d = t1 - th.c_t0 in
    th.calls.(k) <- th.calls.(k) + 1;
    Hist.add th.call_ns.(k) d;
    Hist.add th.call_steps.(k) (s1 - th.c_s0);
    th.child_ns <- th.child_ns + d;
    if th.sampled then keep th k th.c_t0 t1 th.c_s0 s1 th.op_id
  end

let op_start th ~code ~t0 =
  if th.live then begin
    th.op_id <- (th.tid lsl 32) lor th.ops;
    th.op_code <- code;
    th.sampled <- th.ops mod sample_every = 0;
    th.op_t0 <- t0;
    th.op_s0 <- Sched.steps_so_far ();
    th.child_ns <- 0
  end

let op_stop th ~t1 =
  if th.live then begin
    let s1 = Sched.steps_so_far () in
    let d = t1 - th.op_t0 in
    Hist.add th.op_ns d;
    Hist.add th.op_steps (s1 - th.op_s0);
    th.self_ns <- th.self_ns + d - th.child_ns;
    if th.sampled then keep th (-1 - th.op_code) th.op_t0 t1 th.op_s0 s1 th.op_id;
    (match !watched with
    | Some h ->
        let c = (Heap.stats h).live_cells in
        if c > th.live_cells_peak then th.live_cells_peak <- c
    | None -> ());
    th.ops <- th.ops + 1
  end

let kept_spans ths =
  List.fold_left (fun n th -> n + (Hist.count th.spans / span_width)) 0 ths

(* Chrome trace-event JSON of the kept spans; [op_names] names the
   structure ops. *)
let chrome_json ~op_names ths =
  let b = Buffer.create (1 lsl 16) in
  let t_origin =
    List.fold_left
      (fun m th -> if th.spans.n > 0 then min m th.spans.a.(1) else m)
      max_int ths
  in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun th ->
      let a = th.spans.a in
      for i = 0 to (th.spans.n / span_width) - 1 do
        let o = i * span_width in
        let kind = a.(o) and t0 = a.(o + 1) and t1 = a.(o + 2) in
        let s0 = a.(o + 3) and s1 = a.(o + 4) and id = a.(o + 5) in
        let name, cat, parent =
          if kind >= 0 then (call_names.(kind), "lfrc", string_of_int id)
          else (op_names.(-kind - 1), "structures", "null")
        in
        if not !first then Buffer.add_char b ',';
        first := false;
        Printf.bprintf b
          "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\
           \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%s,\
           \"step0\":%d,\"step1\":%d}}"
          name cat th.tid
          (float (t0 - t_origin) /. 1e3)
          (float (t1 - t0) /. 1e3)
          id parent s0 s1
      done)
    ths;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
