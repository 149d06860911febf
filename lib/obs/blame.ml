module Sched = Lfrc_sched.Sched
module Limits = Lfrc_sched.Limits
module Json = Lfrc_util.Json

(* Contention causality. Every successful shared-memory write stamps its
   cell with (thread, call site, op kind, scheduler step); every failed
   CAS/DCAS looks the stamp up and charges one wasted attempt to the
   (victim site, culprit site) pair — the loser's innermost open
   operation against the operation whose winning write invalidated it.
   Under the deterministic scheduler this attribution is exact: the cell
   value a failed compare saw can only have been produced by the stamped
   write, because stamping happens in the same atomic step as the write
   (no yield point in between) and the simulator runs one thread at a
   time.

   The site of a stamp or charge is the caller's: its environment's
   innermost open span. Aggregation happens at charge time — nothing is
   kept per-thread but the current retry chain, so a crashed thread's
   pending state is that chain and the spans its environment surrenders
   ({!adopt} folds both in instead of dropping them).

   Off path: like every observability layer here, [Disabled] makes each
   hook a single branch. *)

type op_kind = Write | Cas | Dcas | Rmw

let op_kind_name = function
  | Write -> "write"
  | Cas -> "cas"
  | Dcas -> "dcas"
  | Rmw -> "rmw"

let op_kind_index = function Write -> 0 | Cas -> 1 | Dcas -> 2 | Rmw -> 3
let op_kinds = [| Write; Cas; Dcas; Rmw |]

module Itbl = Hashtbl.Make (Int)

(* A site is named by its {!Metrics.key}: the span key {!Lfrc_core.Lfrc}
   opens, or one of the reserved culprits below. Names are resolved only
   when reporting. *)
type site = Metrics.key

(* A cell's last successful writer, updated in place on each write. *)
type stamp = {
  mutable s_tid : int;
  mutable s_site : site;
  mutable s_kind : op_kind;
  mutable s_step : int;
}

type pair = {
  p_victim : site;
  p_culprit : site;
  mutable p_wasted : int;  (* failed attempts charged to this pair *)
  mutable p_steps : int;
      (* scheduler-step latency: for each charged failure, how many steps
         before it the culprit's winning write landed — the staleness the
         loser paid for. *)
  mutable p_rc : int;  (* charged failures on cells bound as rc cells *)
  p_kinds : int array;  (* by culprit op kind *)
  p_addrs : int Itbl.t;  (* owner addr -> charged failures *)
}

type chain_stat = {
  cs_site : site;
  mutable cs_chains : int;
  mutable cs_adopted : int;
  mutable cs_len_total : int;
  mutable cs_len_max : int;
  mutable cs_steps_total : int;  (* first-to-last failure, summed *)
}

(* One thread's slot: its open retry chain. A retry chain is consecutive
   charged failures on one thread with no intervening successful write by
   that thread: the critical path of one operation attempt. It closes on
   the thread's next successful write (the op finally landed) or on the
   owning span's end (the op gave up), and a crashed owner's open chain
   is adopted. [ch_len = 0] is the sentinel for "no open chain". *)
type thread = {
  mutable ch_site : site;
  mutable ch_first : int;
  mutable ch_last : int;
  mutable ch_len : int;
}

type reg = {
  lock : Mutex.t;
  tracer : Tracer.t;  (* flow events (winning write -> doomed attempt) *)
  stamps : stamp Itbl.t;  (* cell id -> last successful writer *)
  owners : int Itbl.t;  (* cell id -> owning object (rc cells) *)
  pairs : pair Itbl.t;  (* pair_id victim culprit *)
  threads : thread array;  (* thread slot -> open retry chain *)
  chain_stats : chain_stat Itbl.t;  (* victim site -> stats *)
  mutable flows : int;
  mutable attributed : int;
  mutable unstamped : int;
  mutable spurious : int;
  mutable adopted_frames : int;
  mutable adopted_chains : int;
}

type t = Disabled | On of reg

let unattributed_site = Metrics.key "(unattributed)"
let unstamped_site = Metrics.key "(unstamped)"
let injected_site = Metrics.key "(fault-injection)"

(* A (victim, culprit) pair packed into one int: keys are dense and far
   below 2^30. *)
let pair_id (victim : site) (culprit : site) =
  ((victim :> int) lsl 30) lor (culprit :> int)

let create ?(tracer = Tracer.disabled) () =
  On
    {
      lock = Mutex.create ();
      tracer;
      stamps = Itbl.create 256;
      owners = Itbl.create 256;
      pairs = Itbl.create 32;
      threads =
        Array.init Limits.thread_slots (fun _ ->
            {
              ch_site = unattributed_site;
              ch_first = 0;
              ch_last = 0;
              ch_len = 0;
            });
      chain_stats = Itbl.create 16;
      flows = 0;
      attributed = 0;
      unstamped = 0;
      spurious = 0;
      adopted_frames = 0;
      adopted_chains = 0;
    }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

(* For the cold reporting paths; the hooks lock without a closure. *)
let locked r f = Mutex.protect r.lock f

let thread_of r tid = r.threads.(Limits.slot_of_tid tid)

(* A fresh environment attaching this registry starts a new run: stale
   stamps from a previous heap (cell ids restart per heap) must not be
   blamed for the new run's failures. Aggregates survive — one registry
   can cover a whole experiment campaign. *)
let new_run = function
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      Itbl.reset r.stamps;
      Itbl.reset r.owners;
      Array.iter (fun th -> th.ch_len <- 0) r.threads;
      Mutex.unlock r.lock

let chain_stat_of r (site : site) =
  match Itbl.find_opt r.chain_stats (site :> int) with
  | Some cs -> cs
  | None ->
      let cs =
        {
          cs_site = site;
          cs_chains = 0;
          cs_adopted = 0;
          cs_len_total = 0;
          cs_len_max = 0;
          cs_steps_total = 0;
        }
      in
      Itbl.add r.chain_stats (site :> int) cs;
      cs

(* Called under the lock, on a thread with an open chain. *)
let close_chain_locked r th ~adopted =
  let cs = chain_stat_of r th.ch_site in
  cs.cs_chains <- cs.cs_chains + 1;
  if adopted then begin
    cs.cs_adopted <- cs.cs_adopted + 1;
    r.adopted_chains <- r.adopted_chains + 1
  end;
  cs.cs_len_total <- cs.cs_len_total + th.ch_len;
  if th.ch_len > cs.cs_len_max then cs.cs_len_max <- th.ch_len;
  cs.cs_steps_total <- cs.cs_steps_total + max 0 (th.ch_last - th.ch_first);
  th.ch_len <- 0

let op_end t site =
  match t with
  | Disabled -> ()
  | On r ->
      let th = thread_of r (Sched.tid ()) in
      Mutex.lock r.lock;
      (* An op that ends while its retry chain is still open gave up
         without a winning write (a failed Lfrc.cas, an empty pop): the
         chain is complete, close it. A chain opened by a *different*
         (enclosing) site stays open. *)
      if th.ch_len > 0 && th.ch_site = site then
        close_chain_locked r th ~adopted:false;
      Mutex.unlock r.lock

let bind_owner t ~cell ~addr =
  match t with
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      Itbl.replace r.owners cell addr;
      Mutex.unlock r.lock

let stamp t ~site kind cell =
  match t with
  | Disabled -> ()
  | On r ->
      let tid = Sched.tid () and step = Sched.steps_so_far () in
      let th = thread_of r tid in
      Mutex.lock r.lock;
      (match Itbl.find r.stamps cell with
      | st ->
          st.s_tid <- tid;
          st.s_site <- site;
          st.s_kind <- kind;
          st.s_step <- step
      | exception Not_found ->
          Itbl.add r.stamps cell
            { s_tid = tid; s_site = site; s_kind = kind; s_step = step });
      (* This thread just won a write: whatever it was retrying is
         through — its chain (if any) is complete. *)
      if th.ch_len > 0 then close_chain_locked r th ~adopted:false;
      Mutex.unlock r.lock

let pair_of r ~victim ~culprit =
  let id = pair_id victim culprit in
  match Itbl.find_opt r.pairs id with
  | Some p -> p
  | None ->
      let p =
        {
          p_victim = victim;
          p_culprit = culprit;
          p_wasted = 0;
          p_steps = 0;
          p_rc = 0;
          p_kinds = Array.make 4 0;
          p_addrs = Itbl.create 8;
        }
      in
      Itbl.add r.pairs id p;
      p

let charge_locked r ~victim ~culprit ~kind ~steps ~owner =
  let p = pair_of r ~victim ~culprit in
  p.p_wasted <- p.p_wasted + 1;
  p.p_steps <- p.p_steps + steps;
  p.p_kinds.(op_kind_index kind) <- p.p_kinds.(op_kind_index kind) + 1;
  match owner with
  | None -> ()
  | Some addr ->
      p.p_rc <- p.p_rc + 1;
      let n =
        match Itbl.find_opt p.p_addrs addr with Some n -> n | None -> 0
      in
      Itbl.replace p.p_addrs addr (n + 1)

let extend_chain_locked th ~victim ~step =
  if th.ch_len > 0 then begin
    th.ch_len <- th.ch_len + 1;
    th.ch_last <- step
  end
  else begin
    th.ch_site <- victim;
    th.ch_first <- step;
    th.ch_last <- step;
    th.ch_len <- 1
  end

let charge t ~site:victim kind cell =
  match t with
  | Disabled -> ()
  | On r -> (
      let tid = Sched.tid () and step = Sched.steps_so_far () in
      let th = thread_of r tid in
      Mutex.lock r.lock;
      extend_chain_locked th ~victim ~step;
      let owner = Itbl.find_opt r.owners cell in
      match Itbl.find r.stamps cell with
      | st ->
          r.attributed <- r.attributed + 1;
          charge_locked r ~victim ~culprit:st.s_site ~kind:st.s_kind
            ~steps:(max 0 (step - st.s_step))
            ~owner;
          if not (Tracer.enabled r.tracer) then Mutex.unlock r.lock
          else begin
            r.flows <- r.flows + 1;
            let id = r.flows and c_step = st.s_step and c_tid = st.s_tid in
            Mutex.unlock r.lock;
            (* The flow arrow: from the culprit's winning write to the
               attempt it doomed. Emitted outside our lock (the tracer has
               its own). *)
            Tracer.emit_at r.tracer ~step:c_step ~tid:c_tid ~arg:id
              Tracer.Flow_out "blame";
            Tracer.emit_at r.tracer ~step ~tid ~arg:id Tracer.Flow_in "blame"
          end
      | exception Not_found ->
          r.unstamped <- r.unstamped + 1;
          charge_locked r ~victim ~culprit:unstamped_site ~kind ~steps:0
            ~owner;
          Mutex.unlock r.lock)

(* A spurious (injected) failure compared nothing: no write invalidated
   the attempt, the fault plan did. Charged to a reserved culprit so
   wasted-attempt totals still add up under chaos runs. *)
let charge_spurious t ~site:victim kind =
  match t with
  | Disabled -> ()
  | On r ->
      let step = Sched.steps_so_far () in
      let th = thread_of r (Sched.tid ()) in
      Mutex.lock r.lock;
      extend_chain_locked th ~victim ~step;
      r.spurious <- r.spurious + 1;
      charge_locked r ~victim ~culprit:injected_site ~kind ~steps:0
        ~owner:None;
      Mutex.unlock r.lock

(* Fold crashed threads' pending state — the [frames] open op spans
   their environment surrendered, and their open retry chains — into the
   aggregates instead of leaving it dangling: the blame analogue of the
   recovery pass's orphan adoption. Idempotent per thread (adopted state
   is removed). Returns (frames, chains) counts. *)
let adopt t ~crashed ~frames =
  match t with
  | Disabled -> (0, 0)
  | On r ->
      Mutex.lock r.lock;
      let chains = ref 0 in
      List.iter
        (fun tid ->
          if Limits.has_slot tid then begin
            let th = thread_of r tid in
            if th.ch_len > 0 then begin
              incr chains;
              close_chain_locked r th ~adopted:true
            end
          end)
        crashed;
      r.adopted_frames <- r.adopted_frames + frames;
      Mutex.unlock r.lock;
      (frames, !chains)

let pending t =
  match t with
  | Disabled -> 0
  | On r ->
      Mutex.lock r.lock;
      let n =
        Array.fold_left
          (fun acc th -> if th.ch_len > 0 then acc + 1 else acc)
          0 r.threads
      in
      Mutex.unlock r.lock;
      n

(* --- reporting --- *)

type row = {
  b_victim : string;
  b_culprit : string;
  b_wasted : int;
  b_steps : int;
  b_rc : int;
  b_kinds : (string * int) list;  (* culprit op kinds, nonzero only *)
  b_addrs : (int * int) list;  (* owner addr, charged count; busiest first *)
}

type chain_row = {
  c_site : string;
  c_chains : int;
  c_adopted : int;
  c_len_total : int;
  c_len_max : int;
  c_steps_total : int;
}

let rows t =
  match t with
  | Disabled -> []
  | On r ->
      let all =
        locked r (fun () ->
            Itbl.fold
              (fun _ p acc ->
                let kinds =
                  Array.to_list op_kinds
                  |> List.filter_map (fun k ->
                         let n = p.p_kinds.(op_kind_index k) in
                         if n > 0 then Some (op_kind_name k, n) else None)
                in
                let addrs =
                  Itbl.fold (fun a n acc -> (a, n) :: acc) p.p_addrs []
                  |> List.sort (fun (a1, n1) (a2, n2) ->
                         compare (n2, a1) (n1, a2))
                in
                {
                  b_victim = Metrics.key_name p.p_victim;
                  b_culprit = Metrics.key_name p.p_culprit;
                  b_wasted = p.p_wasted;
                  b_steps = p.p_steps;
                  b_rc = p.p_rc;
                  b_kinds = kinds;
                  b_addrs = addrs;
                }
                :: acc)
              r.pairs [])
      in
      (* Worst pair first; name order breaks ties for deterministic
         byte-identical output on identical runs. *)
      List.sort
        (fun a b ->
          compare
            (b.b_wasted, b.b_steps, a.b_victim, a.b_culprit)
            (a.b_wasted, a.b_steps, b.b_victim, b.b_culprit))
        all

let chain_rows t =
  match t with
  | Disabled -> []
  | On r ->
      locked r (fun () ->
          Itbl.fold
            (fun _ cs acc ->
              {
                c_site = Metrics.key_name cs.cs_site;
                c_chains = cs.cs_chains;
                c_adopted = cs.cs_adopted;
                c_len_total = cs.cs_len_total;
                c_len_max = cs.cs_len_max;
                c_steps_total = cs.cs_steps_total;
              }
              :: acc)
            r.chain_stats [])
      |> List.sort (fun a b ->
             compare
               (b.c_len_total, a.c_site)
               (a.c_len_total, b.c_site))

let total_wasted t =
  List.fold_left (fun acc p -> acc + p.b_wasted) 0 (rows t)

let rc_wasted t = List.fold_left (fun acc p -> acc + p.b_rc) 0 (rows t)

(* The headline join for rc contention: the (victim, culprit) pair with
   the most rc-cell failures and its share of all rc-cell failures. *)
let top_rc_pair t =
  let total = rc_wasted t in
  if total = 0 then None
  else
    let best =
      List.fold_left
        (fun acc p -> match acc with
          | Some b when b.b_rc >= p.b_rc -> Some b
          | _ -> Some p)
        None
        (List.rev (rows t))
    in
    Option.map
      (fun p ->
        (p.b_victim, p.b_culprit, 100.0 *. float_of_int p.b_rc /. float_of_int total))
      best

let counters t =
  match t with
  | Disabled -> (0, 0, 0, 0, 0, 0)
  | On r ->
      locked r (fun () ->
          ( r.attributed,
            r.unstamped,
            r.spurious,
            r.flows,
            r.adopted_frames,
            r.adopted_chains ))

let adopted t =
  let _, _, _, _, frames, chains = counters t in
  (frames, chains)

(* Name an object for the report: its layout family (when the namer can
   still see it) and the last lineage event touching it. Both optional —
   blame stays useful without either. *)
let describe_addr ?namer ?lineage addr =
  let family = Option.bind namer (fun f -> f addr) in
  let last =
    Option.bind lineage (fun ln ->
        Option.map
          (fun ev -> Format.asprintf "%a" Lineage.pp_event ev)
          (Lineage.last_event ln ~addr))
  in
  (family, last)

let matrix t =
  let rs = rows t in
  if rs = [] then "no blamed failures\n"
  else begin
    let sites list =
      List.sort_uniq compare list
    in
    let victims = sites (List.map (fun r -> r.b_victim) rs)
    and culprits = sites (List.map (fun r -> r.b_culprit) rs) in
    let get v c =
      match
        List.find_opt (fun r -> r.b_victim = v && r.b_culprit = c) rs
      with
      | Some r -> r.b_wasted
      | None -> 0
    in
    let buf = Buffer.create 1024 in
    let w = 20 in
    Buffer.add_string buf
      (Printf.sprintf "%-*s" w "victim \\ culprit");
    List.iter
      (fun c -> Buffer.add_string buf (Printf.sprintf " %18s" c))
      culprits;
    Buffer.add_char buf '\n';
    List.iter
      (fun v ->
        Buffer.add_string buf (Printf.sprintf "%-*s" w v);
        List.iter
          (fun c ->
            let n = get v c in
            Buffer.add_string buf
              (if n = 0 then Printf.sprintf " %18s" "."
               else Printf.sprintf " %18d" n))
          culprits;
        Buffer.add_char buf '\n')
      victims;
    Buffer.contents buf
  end

let report ?(top = 10) ?namer ?lineage t =
  let rs = rows t in
  let buf = Buffer.create 1024 in
  let attributed, unstamped, spurious, flows, ad_frames, ad_chains =
    counters t
  in
  Buffer.add_string buf
    (Printf.sprintf
       "blame: %d wasted attempts (%d attributed, %d unstamped, %d injected), \
        %d flow events\n"
       (total_wasted t) attributed unstamped spurious flows);
  if ad_frames > 0 || ad_chains > 0 then
    Buffer.add_string buf
      (Printf.sprintf "adopted from crashed threads: %d open ops, %d chains\n"
         ad_frames ad_chains);
  if rs = [] then Buffer.add_string buf "no blamed failures\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%-4s %-44s %8s %10s %6s\n" "rank" "victim -> culprit"
         "wasted" "steps" "rc");
    List.iteri
      (fun i r ->
        if i < top then begin
          Buffer.add_string buf
            (Printf.sprintf "%3d. %-44s %8d %10d %6d\n" (i + 1)
               (r.b_victim ^ " -> " ^ r.b_culprit)
               r.b_wasted r.b_steps r.b_rc);
          match r.b_addrs with
          | (addr, n) :: _ ->
              let family, last = describe_addr ?namer ?lineage addr in
              Buffer.add_string buf
                (Printf.sprintf "       object %d (%d hits%s)%s\n" addr n
                   (match family with
                   | Some f -> ", family " ^ f
                   | None -> "")
                   (match last with Some l -> "  last: " ^ l | None -> ""))
          | [] -> ()
        end)
      rs;
    (match top_rc_pair t with
    | Some (v, c, share) ->
        Buffer.add_string buf
          (Printf.sprintf
             "rc attribution: %s -> %s covers %.0f%% of rc contention \
              (%d rc failures total)\n"
             v c share (rc_wasted t))
    | None -> Buffer.add_string buf "rc attribution: no rc contention\n");
    match chain_rows t with
    | [] -> ()
    | crs ->
        Buffer.add_string buf
          (Printf.sprintf "%-28s %8s %8s %8s %8s %8s\n" "retry chains by site"
             "chains" "retries" "max-len" "steps" "adopted");
        List.iter
          (fun c ->
            Buffer.add_string buf
              (Printf.sprintf "%-28s %8d %8d %8d %8d %8d\n" c.c_site
                 c.c_chains c.c_len_total c.c_len_max c.c_steps_total
                 c.c_adopted))
          crs
  end;
  Buffer.contents buf

let to_json ?namer ?lineage t =
  let attributed, unstamped, spurious, flows, ad_frames, ad_chains =
    counters t
  in
  let ints fields = List.map (fun (k, n) -> (k, Json.Int n)) fields in
  let obj (addr, n) =
    let family, last = describe_addr ?namer ?lineage addr in
    let opt k = Option.fold ~none:[] ~some:(fun s -> [ (k, Json.String s) ]) in
    Json.Object
      ([ ("addr", Json.Int addr); ("wasted", Json.Int n) ]
      @ opt "family" family @ opt "last" last)
  in
  let pair r =
    Json.Object
      [
        ("victim", Json.String r.b_victim);
        ("culprit", Json.String r.b_culprit);
        ("wasted", Json.Int r.b_wasted);
        ("steps", Json.Int r.b_steps);
        ("rc", Json.Int r.b_rc);
        ("kinds", Json.Object (ints r.b_kinds));
        ( "objects",
          Json.Array (List.map obj (List.filteri (fun j _ -> j < 3) r.b_addrs))
        );
      ]
  in
  let chain c =
    Json.Object
      (("site", Json.String c.c_site)
      :: ints
           [
             ("chains", c.c_chains);
             ("retries", c.c_len_total);
             ("len_max", c.c_len_max);
             ("steps", c.c_steps_total);
             ("adopted", c.c_adopted);
           ])
  in
  Json.Object
    [
      ( "totals",
        Json.Object
          (ints
             [
               ("wasted", total_wasted t);
               ("attributed", attributed);
               ("unstamped", unstamped);
               ("injected", spurious);
               ("rc_wasted", rc_wasted t);
               ("flows", flows);
               ("adopted_frames", ad_frames);
               ("adopted_chains", ad_chains);
               ("pending", pending t);
             ]) );
      ("pairs", Json.Array (List.map pair (rows t)));
      ("chains", Json.Array (List.map chain (chain_rows t)));
    ]
