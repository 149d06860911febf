module Sched = Lfrc_sched.Sched
module Limits = Lfrc_sched.Limits
module Json = Lfrc_util.Json
module Int_table = Lfrc_util.Int_table

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

   The tables are {!Lfrc_util.Int_table}s and flat arrays, so an event
   hashes nothing and allocates nothing once they have grown.

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

(* A site is named by its {!Metrics.key}: the span key {!Lfrc_core.Lfrc}
   opens, or one of the reserved culprits below. Names are resolved only
   when reporting. *)
type site = Metrics.key

let unattributed_site = Metrics.key "(unattributed)"
let unstamped_site = Metrics.key "(unstamped)"
let injected_site = Metrics.key "(fault-injection)"

(* [a] with twice the room (at least [n]), new slots holding [fill]. *)
let widen a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Each stamped cell's last successful writer. [row] maps a cell id to
   1 + its row in the four columns; a re-stamp rewrites its row in
   place. *)
module Stamps = struct
  type t = {
    row : Int_table.t;
    mutable tids : int array;
    mutable sites : site array;
    mutable kinds : op_kind array;
    mutable steps : int array;
  }

  let create () =
    {
      row = Int_table.create 256;
      tids = [||];
      sites = [||];
      kinds = [||];
      steps = [||];
    }

  let clear t = Int_table.clear t.row

  (* [cell]'s row, -1 when it has no stamp. *)
  let find t cell = Int_table.find t.row cell - 1

  let write t cell ~tid ~site ~kind ~step =
    let i = find t cell in
    let i =
      if i >= 0 then i
      else begin
        let i = Int_table.length t.row in
        if i = Array.length t.tids then begin
          t.tids <- widen t.tids 256 0;
          t.sites <- widen t.sites 256 unattributed_site;
          t.kinds <- widen t.kinds 256 Write;
          t.steps <- widen t.steps 256 0
        end;
        Int_table.set t.row cell (i + 1);
        i
      end
    in
    t.tids.(i) <- tid;
    t.sites.(i) <- site;
    t.kinds.(i) <- kind;
    t.steps.(i) <- step
end

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
  p_addrs : Int_table.t;  (* owner addr -> charged failures *)
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
  stamps : Stamps.t;
  owners : Int_table.t;  (* cell id -> owning object (rc cells) *)
  pair_at : Int_table.t;  (* pair_id -> 1 + its index in [pairs] *)
  mutable pairs : pair array;
  threads : thread array;  (* thread slot -> open retry chain *)
  mutable chain_stats : chain_stat array;  (* victim site -> stats *)
  mutable flows : int;
  mutable attributed : int;
  mutable unstamped : int;
  mutable spurious : int;
  mutable adopted_frames : int;
  mutable adopted_chains : int;
}

type t = Disabled | On of reg

(* Marks a site with no chain statistics yet. *)
let no_chain_stat =
  {
    cs_site = unattributed_site;
    cs_chains = 0;
    cs_adopted = 0;
    cs_len_total = 0;
    cs_len_max = 0;
    cs_steps_total = 0;
  }

(* A (victim, culprit) pair packed into one int: keys are dense and far
   below 2^30. *)
let pair_id (victim : site) (culprit : site) =
  ((victim :> int) lsl 30) lor (culprit :> int)

let create ?(tracer = Tracer.disabled) () =
  On
    {
      lock = Mutex.create ();
      tracer;
      stamps = Stamps.create ();
      owners = Int_table.create 256;
      pair_at = Int_table.create 32;
      pairs = [||];
      threads =
        Array.init Limits.thread_slots (fun _ ->
            {
              ch_site = unattributed_site;
              ch_first = 0;
              ch_last = 0;
              ch_len = 0;
            });
      chain_stats = [||];
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

(* A fresh environment attaching this registry starts a new run. Cell
   ids are process-wide and never reused, so no stale stamp could be
   blamed for a new failure; the reset drops the previous run's stamps
   and owner bindings, which no later write will touch, and its open
   retry chains, whose thread slots the new run's threads take over.
   Aggregates survive — one registry can cover a whole experiment
   campaign. *)
let new_run = function
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      Stamps.clear r.stamps;
      Int_table.clear r.owners;
      Array.iter (fun th -> th.ch_len <- 0) r.threads;
      Mutex.unlock r.lock

(* Called under the lock. *)
let chain_stat_of r (site : site) =
  let k = (site :> int) in
  if k >= Array.length r.chain_stats then
    r.chain_stats <- widen r.chain_stats (k + 1) no_chain_stat;
  let cs = r.chain_stats.(k) in
  if cs != no_chain_stat then cs
  else begin
    let cs = { no_chain_stat with cs_site = site } in
    r.chain_stats.(k) <- cs;
    cs
  end

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

(* An op that ends while its retry chain is still open gave up without a
   winning write (a failed Lfrc.cas, an empty pop): the chain is
   complete. A chain opened by a *different* (enclosing) site stays
   open. *)
let ends_chain th site = th.ch_len > 0 && th.ch_site = site

(* Only a slot's own thread writes its chain ([adopt] writes a crashed
   owner's), so the test takes no lock; closing updates the shared
   aggregates and locks. The test is repeated under the lock because on
   real domains, where every thread's tid is 0, threads share a slot. *)
let op_end t site =
  match t with
  | Disabled -> ()
  | On r ->
      let th = thread_of r (Sched.tid ()) in
      if ends_chain th site then begin
        Mutex.lock r.lock;
        if ends_chain th site then close_chain_locked r th ~adopted:false;
        Mutex.unlock r.lock
      end

let bind_owner t ~cell ~addr =
  match t with
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      Int_table.set r.owners cell addr;
      Mutex.unlock r.lock

let stamp t ~site kind cell =
  match t with
  | Disabled -> ()
  | On r ->
      let tid = Sched.tid () and step = Sched.steps_so_far () in
      let th = thread_of r tid in
      Mutex.lock r.lock;
      Stamps.write r.stamps cell ~tid ~site ~kind ~step;
      (* This thread just won a write: whatever it was retrying is
         through — its chain (if any) is complete. *)
      if th.ch_len > 0 then close_chain_locked r th ~adopted:false;
      Mutex.unlock r.lock

(* Called under the lock. *)
let pair_of r ~victim ~culprit =
  let id = pair_id victim culprit in
  let i = Int_table.find r.pair_at id in
  if i > 0 then r.pairs.(i - 1)
  else begin
    let p =
      {
        p_victim = victim;
        p_culprit = culprit;
        p_wasted = 0;
        p_steps = 0;
        p_rc = 0;
        p_kinds = Array.make 4 0;
        p_addrs = Int_table.create 8;
      }
    in
    let n = Int_table.length r.pair_at in
    if n = Array.length r.pairs then r.pairs <- widen r.pairs 16 p;
    r.pairs.(n) <- p;
    Int_table.set r.pair_at id (n + 1);
    p
  end

(* [owner] is the charged cell's owning object, 0 for none. *)
let charge_locked r ~victim ~culprit ~kind ~steps ~owner =
  let p = pair_of r ~victim ~culprit in
  p.p_wasted <- p.p_wasted + 1;
  p.p_steps <- p.p_steps + steps;
  p.p_kinds.(op_kind_index kind) <- p.p_kinds.(op_kind_index kind) + 1;
  if owner <> 0 then begin
    p.p_rc <- p.p_rc + 1;
    Int_table.add p.p_addrs owner 1
  end

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
  | On r ->
      let tid = Sched.tid () and step = Sched.steps_so_far () in
      let th = thread_of r tid in
      Mutex.lock r.lock;
      extend_chain_locked th ~victim ~step;
      let owner = Int_table.find r.owners cell in
      let st = r.stamps in
      let i = Stamps.find st cell in
      if i >= 0 then begin
        r.attributed <- r.attributed + 1;
        let c_step = st.steps.(i) in
        charge_locked r ~victim ~culprit:st.sites.(i) ~kind:st.kinds.(i)
          ~steps:(max 0 (step - c_step))
          ~owner;
        if not (Tracer.enabled r.tracer) then Mutex.unlock r.lock
        else begin
          r.flows <- r.flows + 1;
          let id = r.flows and c_tid = st.tids.(i) in
          Mutex.unlock r.lock;
          (* The flow arrow: from the culprit's winning write to the
             attempt it doomed. Emitted outside our lock (the tracer has
             its own). *)
          Tracer.emit_at r.tracer ~step:c_step ~tid:c_tid ~arg:id
            Tracer.Flow_out "blame";
          Tracer.emit_at r.tracer ~step ~tid ~arg:id Tracer.Flow_in "blame"
        end
      end
      else begin
        r.unstamped <- r.unstamped + 1;
        charge_locked r ~victim ~culprit:unstamped_site ~kind ~steps:0
          ~owner;
        Mutex.unlock r.lock
      end

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
        ~owner:0;
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
      let row p =
        let kinds =
          Array.to_list op_kinds
          |> List.filter_map (fun k ->
                 let n = p.p_kinds.(op_kind_index k) in
                 if n > 0 then Some (op_kind_name k, n) else None)
        in
        let a = p.p_addrs in
        let addrs =
          List.init (Int_table.length a) (fun e ->
              (Int_table.key a e, Int_table.value a e))
          |> List.sort (fun (a1, n1) (a2, n2) -> compare (n2, a1) (n1, a2))
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
      in
      let all =
        locked r (fun () ->
            List.init (Int_table.length r.pair_at) (fun i -> row r.pairs.(i)))
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
          Array.fold_left
            (fun acc cs ->
              if cs == no_chain_stat then acc
              else
                {
                  c_site = Metrics.key_name cs.cs_site;
                  c_chains = cs.cs_chains;
                  c_adopted = cs.cs_adopted;
                  c_len_total = cs.cs_len_total;
                  c_len_max = cs.cs_len_max;
                  c_steps_total = cs.cs_steps_total;
                }
                :: acc)
            [] r.chain_stats)
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
