module Sched = Lfrc_sched.Sched
module Json = Lfrc_util.Json

(* A "site" is the instrumentation label of an operation span —
   "lfrc.load", "ebr.pop", … — registered on first use. Attribution is a
   per-simulated-thread stack of open frames: a retry or DCAS failure
   charges the innermost open frame on the thread it happened on, so a
   destroy embedded in a load charges the destroy, not the load. *)

type site = {
  label : string;
  mutable calls : int;
  mutable retries : int;  (* operation-loop re-runs (LFRC retry shims) *)
  mutable dcas_retries : int;  (* failed CAS/DCAS attempts underneath *)
  mutable steps_total : int;  (* scheduler steps spent inside, summed *)
  mutable steps_max : int;
}

type frame = {
  f_site : site;
  start_step : int;
  mutable f_retries : int;
  mutable f_dcas : int;
}

type reg = {
  lock : Mutex.t;
  metrics : Metrics.t;
  sites : (string, site) Hashtbl.t;
  stacks : (int, frame list ref) Hashtbl.t;  (* tid -> open frames *)
  unattributed : site;  (* failures with no open frame on their thread *)
}

(* Single-branch off switch, same as the disabled Metrics singleton. *)
type t = Disabled | On of reg

let new_site label =
  { label; calls = 0; retries = 0; dcas_retries = 0; steps_total = 0;
    steps_max = 0 }

let create ?(metrics = Metrics.disabled) () =
  On
    {
      lock = Mutex.create ();
      metrics;
      sites = Hashtbl.create 16;
      stacks = Hashtbl.create 8;
      unattributed = new_site "(unattributed)";
    }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

let locked r f = Mutex.protect r.lock f

let site_of r label =
  match Hashtbl.find_opt r.sites label with
  | Some s -> s
  | None ->
      let s = new_site label in
      Hashtbl.add r.sites label s;
      s

let stack_of r tid =
  match Hashtbl.find_opt r.stacks tid with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.add r.stacks tid s;
      s

let op_begin t label =
  match t with
  | Disabled -> ()
  | On r ->
      let start_step = Sched.steps_so_far () and tid = Sched.tid () in
      locked r (fun () ->
          let s = stack_of r tid in
          s :=
            { f_site = site_of r label; start_step; f_retries = 0; f_dcas = 0 }
            :: !s)

let op_end t =
  match t with
  | Disabled -> ()
  | On r -> (
      let now = Sched.steps_so_far () and tid = Sched.tid () in
      let finished =
        locked r (fun () ->
            match Hashtbl.find_opt r.stacks tid with
            | Some ({ contents = f :: rest } as s) ->
                s := rest;
                let steps = max 0 (now - f.start_step) in
                let site = f.f_site in
                site.calls <- site.calls + 1;
                site.retries <- site.retries + f.f_retries;
                site.dcas_retries <- site.dcas_retries + f.f_dcas;
                site.steps_total <- site.steps_total + steps;
                if steps > site.steps_max then site.steps_max <- steps;
                Some (site.label, f.f_retries, f.f_dcas, steps)
            | _ -> None)
      in
      (* Observed for every completed call — zeros included — so the
         histograms are populated deterministically, not only under
         contention. Metrics has its own lock; observe outside ours. *)
      match finished with
      | Some (label, retries, dcas, steps) ->
          Metrics.observe r.metrics (label ^ ".retries") (float_of_int retries);
          Metrics.observe r.metrics (label ^ ".steps") (float_of_int steps);
          Metrics.observe r.metrics ("dcas.retries." ^ label)
            (float_of_int dcas)
      | None -> ())

let charge t ~frame ~orphan =
  match t with
  | Disabled -> ()
  | On r ->
      let tid = Sched.tid () in
      locked r (fun () ->
          match Hashtbl.find_opt r.stacks tid with
          | Some { contents = fr :: _ } -> frame fr
          | _ -> orphan r.unattributed)

let op_retry t =
  charge t
    ~frame:(fun fr -> fr.f_retries <- fr.f_retries + 1)
    ~orphan:(fun site -> site.retries <- site.retries + 1)

let dcas_retry t =
  charge t
    ~frame:(fun fr -> fr.f_dcas <- fr.f_dcas + 1)
    ~orphan:(fun site -> site.dcas_retries <- site.dcas_retries + 1)

let current_site t =
  match t with
  | Disabled -> "?"
  | On r -> (
      let tid = Sched.tid () in
      locked r (fun () ->
          match Hashtbl.find_opt r.stacks tid with
          | Some { contents = f :: _ } -> f.f_site.label
          | _ -> r.unattributed.label))

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
      let all =
        locked r (fun () ->
            let acc =
              Hashtbl.fold (fun _ s acc -> row_of s :: acc) r.sites []
            in
            if
              r.unattributed.retries > 0 || r.unattributed.dcas_retries > 0
            then row_of r.unattributed :: acc
            else acc)
      in
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
