module Sched = Lfrc_sched.Sched
module Limits = Lfrc_sched.Limits
module Json = Lfrc_util.Json

(* A "site" is the instrumentation label of an operation span —
   "lfrc.load", "ebr.pop", … — named by its {!Metrics.key} and
   registered on first use. Attribution is a per-simulated-thread stack
   of open frames: a retry or DCAS failure charges the innermost open
   frame on the thread it happened on, so a destroy embedded in a load
   charges the destroy, not the load.

   The hooks allocate nothing of their own; only the samples [op_end]
   hands to {!Metrics.observe} are boxed. Sites sit in an array indexed
   by span key and carry their three histogram keys, built once when the
   site is created. Each thread owns a slot
   ({!Lfrc_sched.Limits.slot_of_tid}) holding a stack of frame records
   that are reused from call to call. *)

type site = {
  label : string;
  k_retries : Metrics.key;  (* <site>.retries *)
  k_steps : Metrics.key;  (* <site>.steps *)
  k_dcas : Metrics.key;  (* dcas.retries.<site> *)
  mutable calls : int;
  mutable retries : int;  (* operation-loop re-runs (LFRC retry shims) *)
  mutable dcas_retries : int;  (* failed CAS/DCAS attempts underneath *)
  mutable steps_total : int;  (* scheduler steps spent inside, summed *)
  mutable steps_max : int;
}

type frame = {
  mutable f_site : site;
  mutable start_step : int;
  mutable f_retries : int;
  mutable f_dcas : int;
}

(* One thread's open frames: [frames.(0 .. depth - 1)], innermost last. *)
type stack = { mutable depth : int; mutable frames : frame array }

type reg = {
  lock : Mutex.t;
  metrics : Metrics.t;
  mutable sites : site array;  (* span key -> site, [no_site] if unseen *)
  stacks : stack array;  (* thread slot -> open frames *)
  unattributed : site;  (* failures with no open frame on their thread *)
}

(* Single-branch off switch, same as the disabled Metrics singleton. *)
type t = Disabled | On of reg

let new_site label =
  {
    label;
    k_retries = Metrics.key (label ^ ".retries");
    k_steps = Metrics.key (label ^ ".steps");
    k_dcas = Metrics.key ("dcas.retries." ^ label);
    calls = 0;
    retries = 0;
    dcas_retries = 0;
    steps_total = 0;
    steps_max = 0;
  }

let no_site = new_site "(none)"

let create ?(metrics = Metrics.disabled) () =
  On
    {
      lock = Mutex.create ();
      metrics;
      sites = [||];
      stacks =
        Array.init Limits.thread_slots (fun _ -> { depth = 0; frames = [||] });
      unattributed = new_site "(unattributed)";
    }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

let stack_of r = r.stacks.(Limits.slot_of_tid (Sched.tid ()))

(* Called under the lock. *)
let site_of r (key : Metrics.key) =
  let k = (key :> int) in
  if k >= Array.length r.sites then begin
    let bigger = Array.make (max 16 (2 * (k + 1))) no_site in
    Array.blit r.sites 0 bigger 0 (Array.length r.sites);
    r.sites <- bigger
  end;
  let s = r.sites.(k) in
  if s != no_site then s
  else begin
    let s = new_site (Metrics.key_name key) in
    r.sites.(k) <- s;
    s
  end

(* Called under the lock: the stack's next free frame, grown on demand. *)
let push_frame st =
  if st.depth = Array.length st.frames then begin
    let n = max 4 (2 * st.depth) in
    st.frames <-
      Array.init n (fun i ->
          if i < st.depth then st.frames.(i)
          else { f_site = no_site; start_step = 0; f_retries = 0; f_dcas = 0 })
  end;
  let f = st.frames.(st.depth) in
  st.depth <- st.depth + 1;
  f

let op_begin t key =
  match t with
  | Disabled -> ()
  | On r ->
      let start_step = Sched.steps_so_far () and st = stack_of r in
      Mutex.lock r.lock;
      let f = push_frame st in
      f.f_site <- site_of r key;
      f.start_step <- start_step;
      f.f_retries <- 0;
      f.f_dcas <- 0;
      Mutex.unlock r.lock

let op_end t =
  match t with
  | Disabled -> ()
  | On r ->
      let now = Sched.steps_so_far () and st = stack_of r in
      Mutex.lock r.lock;
      if st.depth = 0 then Mutex.unlock r.lock
      else begin
        st.depth <- st.depth - 1;
        let f = st.frames.(st.depth) in
        let site = f.f_site and retries = f.f_retries and dcas = f.f_dcas in
        let steps = max 0 (now - f.start_step) in
        site.calls <- site.calls + 1;
        site.retries <- site.retries + retries;
        site.dcas_retries <- site.dcas_retries + dcas;
        site.steps_total <- site.steps_total + steps;
        if steps > site.steps_max then site.steps_max <- steps;
        Mutex.unlock r.lock;
        (* Observed for every completed call — zeros included — so the
           histograms are populated deterministically, not only under
           contention. Metrics has its own lock; observe outside ours. *)
        if Metrics.enabled r.metrics then begin
          Metrics.observe r.metrics site.k_retries (float_of_int retries);
          Metrics.observe r.metrics site.k_steps (float_of_int steps);
          Metrics.observe r.metrics site.k_dcas (float_of_int dcas)
        end
      end

let op_retry t =
  match t with
  | Disabled -> ()
  | On r ->
      let st = stack_of r in
      Mutex.lock r.lock;
      (if st.depth = 0 then
         r.unattributed.retries <- r.unattributed.retries + 1
       else
         let f = st.frames.(st.depth - 1) in
         f.f_retries <- f.f_retries + 1);
      Mutex.unlock r.lock

let dcas_retry t =
  match t with
  | Disabled -> ()
  | On r ->
      let st = stack_of r in
      Mutex.lock r.lock;
      (if st.depth = 0 then
         r.unattributed.dcas_retries <- r.unattributed.dcas_retries + 1
       else
         let f = st.frames.(st.depth - 1) in
         f.f_dcas <- f.f_dcas + 1);
      Mutex.unlock r.lock

let current_site t =
  match t with
  | Disabled -> "?"
  | On r ->
      let st = stack_of r in
      Mutex.lock r.lock;
      let label =
        if st.depth = 0 then r.unattributed.label
        else st.frames.(st.depth - 1).f_site.label
      in
      Mutex.unlock r.lock;
      label

(* --- reporting --- *)

type row = {
  r_site : string;
  r_calls : int;
  r_retries : int;
  r_dcas_retries : int;
  r_wasted : int;
  r_steps_total : int;
  r_steps_max : int;
}

let row_of (s : site) =
  {
    r_site = s.label;
    r_calls = s.calls;
    r_retries = s.retries;
    r_dcas_retries = s.dcas_retries;
    r_wasted = s.retries + s.dcas_retries;
    r_steps_total = s.steps_total;
    r_steps_max = s.steps_max;
  }

let rows t =
  match t with
  | Disabled -> []
  | On r ->
      Mutex.lock r.lock;
      let all =
        Array.fold_left
          (fun acc s -> if s == no_site then acc else row_of s :: acc)
          [] r.sites
      in
      let all =
        if r.unattributed.retries > 0 || r.unattributed.dcas_retries > 0 then
          row_of r.unattributed :: all
        else all
      in
      Mutex.unlock r.lock;
      (* Most wasted attempts first: the contention hot list. *)
      List.sort
        (fun a b -> compare (b.r_wasted, a.r_site) (a.r_wasted, b.r_site))
        all

let mean_steps row =
  if row.r_calls = 0 then 0.0
  else float_of_int row.r_steps_total /. float_of_int row.r_calls

let table t =
  match rows t with
  | [] -> "no profiled sites\n"
  | rs ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "%-28s %8s %8s %8s %8s %10s %8s\n" "site" "calls"
           "retries" "dcas" "wasted" "steps/op" "max");
      List.iter
        (fun row ->
          Buffer.add_string buf
            (Printf.sprintf "%-28s %8d %8d %8d %8d %10.2f %8d\n" row.r_site
               row.r_calls row.r_retries row.r_dcas_retries row.r_wasted
               (mean_steps row) row.r_steps_max))
        rs;
      Buffer.contents buf

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"sites\":[";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"site\":\"%s\",\"calls\":%d,\"retries\":%d,\"dcas_retries\":%d,\
            \"wasted\":%d,\"steps_total\":%d,\"steps_max\":%d,\
            \"steps_per_op\":%.4f}"
           (Json.escape row.r_site) row.r_calls row.r_retries
           row.r_dcas_retries row.r_wasted row.r_steps_total row.r_steps_max
           (mean_steps row)))
    (rows t);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let total_wasted t =
  List.fold_left (fun acc r -> acc + r.r_wasted) 0 (rows t)
