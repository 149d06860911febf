module Json = Lfrc_util.Json

(* A "site" is the instrumentation label of an operation span —
   "lfrc.load", "lfrc.destroy", … — named by its {!Metrics.key} and
   registered on first use. The environment keeps the open spans and
   charges each retry or failed DCAS to the innermost one on the thread
   it happened on, so a destroy embedded in a load charges the destroy,
   not the load; this module observes each span as it closes. A charge
   made with no span open goes to the "(unattributed)" site, which has
   no calls.

   The profiler keeps no totals of its own: each closed span is three
   samples in its site's histograms, and a row reads their count, sum
   and max back. Sites sit in an array indexed by span key and carry
   their three histogram keys, built once when the site is created, so
   once it exists a span closes without a lock and allocates nothing:
   the three int samples bump atomic buckets. *)

type site = {
  label : string;
  k_retries : Metrics.key;  (* <site>.retries: operation-loop re-runs *)
  k_steps : Metrics.key;  (* <site>.steps: scheduler steps inside *)
  k_dcas : Metrics.key;  (* dcas.retries.<site>: failed CAS/DCAS attempts *)
}

type reg = {
  lock : Mutex.t;  (* taken to add a site *)
  metrics : Metrics.t;
  sites : site array Atomic.t;  (* span key -> site, [no_site] if unseen *)
  unattributed_retries : int Atomic.t;
  unattributed_dcas : int Atomic.t;
}

(* Single-branch off switch, same as the disabled Metrics singleton. *)
type t = Disabled | On of reg

let new_site label =
  {
    label;
    k_retries = Metrics.key (label ^ ".retries");
    k_steps = Metrics.key (label ^ ".steps");
    k_dcas = Metrics.key ("dcas.retries." ^ label);
  }

let no_site = new_site "(none)"

let create ?(metrics = Metrics.disabled) () =
  On
    {
      lock = Mutex.create ();
      metrics = (if Metrics.enabled metrics then metrics else Metrics.create ());
      sites = Atomic.make [||];
      unattributed_retries = Atomic.make 0;
      unattributed_dcas = Atomic.make 0;
    }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

(* A site seen for the first time. The array is republished whole after
   a growth, as the registry's slots are. *)
let add_site r (key : Metrics.key) =
  let k = (key :> int) in
  Mutex.lock r.lock;
  let sites = Atomic.get r.sites in
  let sites =
    if k < Array.length sites then sites
    else begin
      let bigger = Array.make (max 16 (2 * (k + 1))) no_site in
      Array.blit sites 0 bigger 0 (Array.length sites);
      bigger
    end
  in
  if sites.(k) == no_site then sites.(k) <- new_site (Metrics.key_name key);
  Atomic.set r.sites sites;
  Mutex.unlock r.lock;
  sites.(k)

(* Observed for every completed call — zeros included — so the
   histograms are populated deterministically, not only under
   contention. *)
let op_end t (key : Metrics.key) ~steps ~retries ~dcas =
  match t with
  | Disabled -> ()
  | On r ->
      let sites = Atomic.get r.sites and k = (key :> int) in
      let s = if k < Array.length sites then Array.unsafe_get sites k else no_site in
      let s = if s != no_site then s else add_site r key in
      Metrics.observe r.metrics s.k_retries retries;
      Metrics.observe r.metrics s.k_steps steps;
      Metrics.observe r.metrics s.k_dcas dcas

let unattributed t ~retry =
  match t with
  | Disabled -> ()
  | On r ->
      Atomic.incr (if retry then r.unattributed_retries else r.unattributed_dcas)

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

(* A row from its series' (count, sum, max) tallies. *)
let row r_site (r_calls, r_retries, _) (_, r_dcas_retries, _)
    (_, r_steps_total, r_steps_max) =
  let r_wasted = r_retries + r_dcas_retries in
  { r_site; r_calls; r_retries; r_dcas_retries; r_wasted; r_steps_total;
    r_steps_max }

let rows t =
  match t with
  | Disabled -> []
  | On r ->
      let tally k = Metrics.tally r.metrics k in
      let retries = Atomic.get r.unattributed_retries
      and dcas = Atomic.get r.unattributed_dcas in
      let unattributed =
        if retries + dcas = 0 then []
        else [ row "(unattributed)" (0, retries, 0) (0, dcas, 0) (0, 0, 0) ]
      in
      let all =
        Array.fold_left
          (fun acc s ->
            if s == no_site then acc
            else
              row s.label (tally s.k_retries) (tally s.k_dcas) (tally s.k_steps)
              :: acc)
          unattributed (Atomic.get r.sites)
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
