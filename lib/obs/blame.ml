module Sched = Lfrc_sched.Sched
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

   Sites are maintained by this module's own per-thread stack (fed by
   the same [Lfrc.span] shim that feeds the profiler), so blame works
   with the profiler off. Aggregation happens at charge time — nothing
   is kept per-thread except the open-op stack and the current retry
   chain, which is why a crashed thread's pending state is exactly
   those two things ({!adopt} folds them in instead of dropping them).

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

type stamp = { s_tid : int; s_site : string; s_kind : op_kind; s_step : int }

type pair = {
  mutable p_wasted : int;  (* failed attempts charged to this pair *)
  mutable p_steps : int;
      (* scheduler-step latency: for each charged failure, how many steps
         before it the culprit's winning write landed — the staleness the
         loser paid for. *)
  mutable p_rc : int;  (* charged failures on cells bound as rc cells *)
  p_kinds : int array;  (* by culprit op kind *)
  p_addrs : (int, int) Hashtbl.t;  (* owner addr -> charged failures *)
}

(* A retry chain: consecutive charged failures on one thread with no
   intervening successful write by that thread. The chain is the critical
   path of one operation attempt; it closes on the thread's next
   successful write (the op finally landed) or on the owning span's end
   (the op gave up), and a crashed owner's open chain is adopted. *)
type chain = {
  ch_site : string;
  ch_first : int;
  mutable ch_last : int;
  mutable ch_len : int;
}

type chain_stat = {
  mutable cs_chains : int;
  mutable cs_adopted : int;
  mutable cs_len_total : int;
  mutable cs_len_max : int;
  mutable cs_steps_total : int;  (* first-to-last failure, summed *)
}

type reg = {
  lock : Mutex.t;
  tracer : Tracer.t;  (* flow events (winning write -> doomed attempt) *)
  stamps : (int, stamp) Hashtbl.t;  (* cell id -> last successful writer *)
  owners : (int, int) Hashtbl.t;  (* cell id -> owning object (rc cells) *)
  pairs : (string * string, pair) Hashtbl.t;  (* (victim, culprit) *)
  stacks : (int, string list ref) Hashtbl.t;  (* tid -> open op labels *)
  chains : (int, chain) Hashtbl.t;  (* tid -> open retry chain *)
  chain_stats : (string, chain_stat) Hashtbl.t;  (* victim site -> stats *)
  mutable flows : int;
  mutable attributed : int;
  mutable unstamped : int;
  mutable spurious : int;
  mutable adopted_frames : int;
  mutable adopted_chains : int;
}

type t = Disabled | On of reg

let unattributed_site = "(unattributed)"
let unstamped_site = "(unstamped)"
let injected_site = "(fault-injection)"

let create ?(tracer = Tracer.disabled) () =
  On
    {
      lock = Mutex.create ();
      tracer;
      stamps = Hashtbl.create 256;
      owners = Hashtbl.create 256;
      pairs = Hashtbl.create 32;
      stacks = Hashtbl.create 8;
      chains = Hashtbl.create 8;
      chain_stats = Hashtbl.create 16;
      flows = 0;
      attributed = 0;
      unstamped = 0;
      spurious = 0;
      adopted_frames = 0;
      adopted_chains = 0;
    }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

let locked r f = Mutex.protect r.lock f

(* A fresh environment attaching this registry starts a new run: stale
   stamps from a previous heap (cell ids restart per heap) must not be
   blamed for the new run's failures. Aggregates survive — one registry
   can cover a whole experiment campaign. *)
let new_run = function
  | Disabled -> ()
  | On r ->
      locked r (fun () ->
          Hashtbl.reset r.stamps;
          Hashtbl.reset r.owners;
          Hashtbl.reset r.stacks;
          Hashtbl.reset r.chains)

let stack_of r tid =
  match Hashtbl.find_opt r.stacks tid with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.add r.stacks tid s;
      s

let current_site_locked r tid =
  match Hashtbl.find_opt r.stacks tid with
  | Some { contents = site :: _ } -> site
  | _ -> unattributed_site

let op_begin t label =
  match t with
  | Disabled -> ()
  | On r ->
      let tid = Sched.tid () in
      locked r (fun () ->
          let s = stack_of r tid in
          s := label :: !s)

let chain_stat_of r site =
  match Hashtbl.find_opt r.chain_stats site with
  | Some cs -> cs
  | None ->
      let cs =
        {
          cs_chains = 0;
          cs_adopted = 0;
          cs_len_total = 0;
          cs_len_max = 0;
          cs_steps_total = 0;
        }
      in
      Hashtbl.add r.chain_stats site cs;
      cs

let close_chain_locked r tid ~adopted =
  match Hashtbl.find_opt r.chains tid with
  | None -> ()
  | Some ch ->
      Hashtbl.remove r.chains tid;
      let cs = chain_stat_of r ch.ch_site in
      cs.cs_chains <- cs.cs_chains + 1;
      if adopted then begin
        cs.cs_adopted <- cs.cs_adopted + 1;
        r.adopted_chains <- r.adopted_chains + 1
      end;
      cs.cs_len_total <- cs.cs_len_total + ch.ch_len;
      if ch.ch_len > cs.cs_len_max then cs.cs_len_max <- ch.ch_len;
      cs.cs_steps_total <- cs.cs_steps_total + max 0 (ch.ch_last - ch.ch_first)

let op_end t =
  match t with
  | Disabled -> ()
  | On r ->
      let tid = Sched.tid () in
      locked r (fun () ->
          match Hashtbl.find_opt r.stacks tid with
          | Some ({ contents = site :: rest } as s) ->
              s := rest;
              (* An op that ends while its retry chain is still open gave
                 up without a winning write (a failed Lfrc.cas, an empty
                 pop): the chain is complete, close it. A chain opened by
                 a *different* (enclosing) site stays open. *)
              (match Hashtbl.find_opt r.chains tid with
              | Some ch when ch.ch_site = site ->
                  close_chain_locked r tid ~adopted:false
              | _ -> ())
          | _ -> ())

let bind_owner t ~cell ~addr =
  match t with
  | Disabled -> ()
  | On r -> locked r (fun () -> Hashtbl.replace r.owners cell addr)

let stamp t kind cell =
  match t with
  | Disabled -> ()
  | On r ->
      let tid = Sched.tid () and step = Sched.steps_so_far () in
      locked r (fun () ->
          let site = current_site_locked r tid in
          Hashtbl.replace r.stamps cell
            { s_tid = tid; s_site = site; s_kind = kind; s_step = step };
          (* This thread just won a write: whatever it was retrying is
             through — its chain (if any) is complete. *)
          close_chain_locked r tid ~adopted:false)

let pair_of r key =
  match Hashtbl.find_opt r.pairs key with
  | Some p -> p
  | None ->
      let p =
        {
          p_wasted = 0;
          p_steps = 0;
          p_rc = 0;
          p_kinds = Array.make 4 0;
          p_addrs = Hashtbl.create 8;
        }
      in
      Hashtbl.add r.pairs key p;
      p

let charge_locked r ~victim ~culprit ~kind ~steps ~owner =
  let p = pair_of r (victim, culprit) in
  p.p_wasted <- p.p_wasted + 1;
  p.p_steps <- p.p_steps + steps;
  p.p_kinds.(op_kind_index kind) <- p.p_kinds.(op_kind_index kind) + 1;
  match owner with
  | None -> ()
  | Some addr ->
      p.p_rc <- p.p_rc + 1;
      let n =
        match Hashtbl.find_opt p.p_addrs addr with Some n -> n | None -> 0
      in
      Hashtbl.replace p.p_addrs addr (n + 1)

let extend_chain_locked r tid ~victim ~step =
  match Hashtbl.find_opt r.chains tid with
  | Some ch ->
      ch.ch_len <- ch.ch_len + 1;
      ch.ch_last <- step
  | None ->
      Hashtbl.replace r.chains tid
        { ch_site = victim; ch_first = step; ch_last = step; ch_len = 1 }

let charge t kind cell =
  match t with
  | Disabled -> ()
  | On r ->
      let tid = Sched.tid () and step = Sched.steps_so_far () in
      let flow =
        locked r (fun () ->
            let victim = current_site_locked r tid in
            extend_chain_locked r tid ~victim ~step;
            let owner = Hashtbl.find_opt r.owners cell in
            match Hashtbl.find_opt r.stamps cell with
            | Some st ->
                r.attributed <- r.attributed + 1;
                charge_locked r ~victim ~culprit:st.s_site ~kind:st.s_kind
                  ~steps:(max 0 (step - st.s_step))
                  ~owner;
                if Tracer.enabled r.tracer then begin
                  r.flows <- r.flows + 1;
                  Some (r.flows, st.s_step, st.s_tid)
                end
                else None
            | None ->
                r.unstamped <- r.unstamped + 1;
                charge_locked r ~victim ~culprit:unstamped_site ~kind ~steps:0
                  ~owner;
                None)
      in
      (* The flow arrow: from the culprit's winning write to the attempt
         it doomed. Emitted outside our lock (the tracer has its own). *)
      match flow with
      | None -> ()
      | Some (id, c_step, c_tid) ->
          Tracer.emit_at r.tracer ~step:c_step ~tid:c_tid ~arg:id
            Tracer.Flow_out "blame";
          Tracer.emit_at r.tracer ~step ~tid ~arg:id Tracer.Flow_in "blame"

(* A spurious (injected) failure compared nothing: no write invalidated
   the attempt, the fault plan did. Charged to a reserved culprit so
   wasted-attempt totals still add up under chaos runs. *)
let charge_spurious t kind =
  match t with
  | Disabled -> ()
  | On r ->
      let tid = Sched.tid () and step = Sched.steps_so_far () in
      locked r (fun () ->
          let victim = current_site_locked r tid in
          extend_chain_locked r tid ~victim ~step;
          r.spurious <- r.spurious + 1;
          charge_locked r ~victim ~culprit:injected_site ~kind ~steps:0
            ~owner:None)

(* Fold crashed threads' pending state — open op frames and open retry
   chains — into the aggregates instead of leaving it dangling: the
   blame analogue of the recovery pass's orphan adoption. Idempotent per
   thread (adopted state is removed). Returns (frames, chains) counts. *)
let adopt t ~crashed =
  match t with
  | Disabled -> (0, 0)
  | On r ->
      locked r (fun () ->
          let frames = ref 0 and chains = ref 0 in
          List.iter
            (fun tid ->
              (match Hashtbl.find_opt r.stacks tid with
              | Some s ->
                  frames := !frames + List.length !s;
                  Hashtbl.remove r.stacks tid
              | None -> ());
              match Hashtbl.find_opt r.chains tid with
              | Some _ ->
                  incr chains;
                  close_chain_locked r tid ~adopted:true
              | None -> ())
            crashed;
          r.adopted_frames <- r.adopted_frames + !frames;
          (!frames, !chains))

let pending t =
  match t with
  | Disabled -> 0
  | On r ->
      locked r (fun () ->
          Hashtbl.fold (fun _ s acc -> acc + List.length !s) r.stacks 0
          + Hashtbl.length r.chains)

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
            Hashtbl.fold
              (fun (victim, culprit) p acc ->
                let kinds =
                  Array.to_list op_kinds
                  |> List.filter_map (fun k ->
                         let n = p.p_kinds.(op_kind_index k) in
                         if n > 0 then Some (op_kind_name k, n) else None)
                in
                let addrs =
                  Hashtbl.fold (fun a n acc -> (a, n) :: acc) p.p_addrs []
                  |> List.sort (fun (a1, n1) (a2, n2) ->
                         compare (n2, a1) (n1, a2))
                in
                {
                  b_victim = victim;
                  b_culprit = culprit;
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
          Hashtbl.fold
            (fun site cs acc ->
              {
                c_site = site;
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
  let buf = Buffer.create 2048 in
  let attributed, unstamped, spurious, flows, ad_frames, ad_chains =
    counters t
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"totals\":{\"wasted\":%d,\"attributed\":%d,\"unstamped\":%d,\
        \"injected\":%d,\"rc_wasted\":%d,\"flows\":%d,\
        \"adopted_frames\":%d,\"adopted_chains\":%d,\"pending\":%d},\
        \"pairs\":["
       (total_wasted t) attributed unstamped spurious (rc_wasted t) flows
       ad_frames ad_chains (pending t));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"victim\":\"%s\",\"culprit\":\"%s\",\"wasted\":%d,\
            \"steps\":%d,\"rc\":%d,\"kinds\":{"
           (Json.escape r.b_victim) (Json.escape r.b_culprit) r.b_wasted
           r.b_steps r.b_rc);
      List.iteri
        (fun j (k, n) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "\"%s\":%d" k n))
        r.b_kinds;
      Buffer.add_string buf "},\"objects\":[";
      List.iteri
        (fun j (addr, n) ->
          if j < 3 then begin
            if j > 0 then Buffer.add_char buf ',';
            let family, last = describe_addr ?namer ?lineage addr in
            Buffer.add_string buf
              (Printf.sprintf "{\"addr\":%d,\"wasted\":%d%s%s}" addr n
                 (match family with
                 | Some f -> Printf.sprintf ",\"family\":\"%s\"" (Json.escape f)
                 | None -> "")
                 (match last with
                 | Some l -> Printf.sprintf ",\"last\":\"%s\"" (Json.escape l)
                 | None -> ""))
          end)
        r.b_addrs;
      Buffer.add_string buf "]}")
    (rows t);
  Buffer.add_string buf "],\"chains\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"site\":\"%s\",\"chains\":%d,\"retries\":%d,\"len_max\":%d,\
            \"steps\":%d,\"adopted\":%d}"
           (Json.escape c.c_site) c.c_chains c.c_len_total c.c_len_max
           c.c_steps_total c.c_adopted))
    (chain_rows t);
  Buffer.add_string buf "]}";
  Buffer.contents buf
