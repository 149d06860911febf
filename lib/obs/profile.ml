module Json = Lfrc_util.Json

(* A "site" is the instrumentation label of an operation span —
   "lfrc.load", "lfrc.destroy", … — named by its {!Metrics.key} and
   registered on first use. The environment keeps the open spans and
   charges each retry or failed DCAS to the innermost one on the thread
   it happened on, so a destroy embedded in a load charges the destroy,
   not the load; this module aggregates each span as it closes. A charge
   made with no span open goes to the "(unattributed)" site, which has
   no calls.

   Sites sit in an array indexed by span key and carry their three
   histogram keys, built once when the site is created, so aggregation
   allocates nothing: the three int samples [op_end] hands to
   {!Metrics.observe} bump atomic buckets. *)

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

type reg = {
  lock : Mutex.t;
  metrics : Metrics.t;
  mutable sites : site array;  (* span key -> site, [no_site] if unseen *)
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

let k_unattributed = Metrics.key "(unattributed)"

let create ?(metrics = Metrics.disabled) () =
  On { lock = Mutex.create (); metrics; sites = [||] }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

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

let op_end t key ~steps ~retries ~dcas =
  match t with
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      let site = site_of r key in
      site.calls <- site.calls + 1;
      site.retries <- site.retries + retries;
      site.dcas_retries <- site.dcas_retries + dcas;
      site.steps_total <- site.steps_total + steps;
      if steps > site.steps_max then site.steps_max <- steps;
      Mutex.unlock r.lock;
      (* Observed for every completed call — zeros included — so the
         histograms are populated deterministically, not only under
         contention. Outside our lock: a sample out of bucket range takes
         the registry's. *)
      Metrics.observe r.metrics site.k_retries retries;
      Metrics.observe r.metrics site.k_steps steps;
      Metrics.observe r.metrics site.k_dcas dcas

let unattributed t ~retry =
  match t with
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      let s = site_of r k_unattributed in
      if retry then s.retries <- s.retries + 1
      else s.dcas_retries <- s.dcas_retries + 1;
      Mutex.unlock r.lock

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
  let site row =
    Json.Object
      [
        ("site", Json.String row.r_site);
        ("calls", Json.Int row.r_calls);
        ("retries", Json.Int row.r_retries);
        ("dcas_retries", Json.Int row.r_dcas_retries);
        ("wasted", Json.Int row.r_wasted);
        ("steps_total", Json.Int row.r_steps_total);
        ("steps_max", Json.Int row.r_steps_max);
        ("steps_per_op", Json.Num (Printf.sprintf "%.4f" (mean_steps row)));
      ]
  in
  Json.Object [ ("sites", Json.Array (List.map site (rows t))) ]

let total_wasted t =
  List.fold_left (fun acc r -> acc + r.r_wasted) 0 (rows t)
