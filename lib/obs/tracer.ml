module Sched = Lfrc_sched.Sched
module Json = Lfrc_util.Json

type kind = Begin | End | Retry | Free | Fault | Instant | Flow_out | Flow_in

type event = { step : int; tid : int; kind : kind; name : string; arg : int }

type ring = {
  lock : Mutex.t;
  cap : int;
  buf : event array;
  mutable total : int;  (* events ever emitted; buf index = total mod cap *)
  mutable meta : (string * string) list;  (* run metadata, export headers *)
}

type t = Disabled | On of ring

let dummy = { step = 0; tid = 0; kind = Instant; name = ""; arg = 0 }

let create ~capacity =
  if capacity <= 0 then Disabled
  else
    On
      {
        lock = Mutex.create ();
        cap = capacity;
        buf = Array.make capacity dummy;
        total = 0;
        meta = [];
      }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

let push r ev =
  Mutex.lock r.lock;
  r.buf.(r.total mod r.cap) <- ev;
  r.total <- r.total + 1;
  Mutex.unlock r.lock

let emit t ?(arg = 0) kind name =
  match t with
  | Disabled -> ()
  | On r ->
      push r
        { step = Sched.steps_so_far (); tid = Sched.tid (); kind; name; arg }

(* Backdated emission: flow events point at the culprit's *past* winning
   write, so the blame layer needs to place an event at an explicit
   (step, tid) rather than "now". *)
let emit_at t ~step ~tid ?(arg = 0) kind name =
  match t with Disabled -> () | On r -> push r { step; tid; kind; name; arg }

let set_meta t kvs =
  match t with Disabled -> () | On r -> r.meta <- kvs

let meta = function Disabled -> [] | On r -> r.meta

let events = function
  | Disabled -> []
  | On r ->
      Mutex.lock r.lock;
      let n = min r.total r.cap in
      let start = r.total - n in
      let out = List.init n (fun i -> r.buf.((start + i) mod r.cap)) in
      Mutex.unlock r.lock;
      out

let recorded = function Disabled -> 0 | On r -> r.total

let dropped = function Disabled -> 0 | On r -> max 0 (r.total - r.cap)

let clear = function
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      r.total <- 0;
      Mutex.unlock r.lock

let kind_name = function
  | Begin -> "begin"
  | End -> "end"
  | Retry -> "retry"
  | Free -> "free"
  | Fault -> "fault"
  | Instant -> "instant"
  | Flow_out -> "flow-out"
  | Flow_in -> "flow-in"

(* Spans are re-paired at export into Chrome "X" (complete) records: a ring
   that overwrote a span's Begin would otherwise emit an unmatched "E",
   which chrome://tracing renders as garbage. Instant events map to "i".

   The pairing works over any event list (not just this ring's) so the
   lineage forensics can reuse it for per-object timelines. *)
let chrome_json_of_events ?(meta = []) evs =
  let records = ref [] in
  let record fields = records := Json.Object fields :: !records in
  let common ev =
    [
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.tid);
      ("args", Json.Object [ ("arg", Json.Int ev.arg) ]);
    ]
  in
  let instant ev cat =
    record
      ([
         ("name", Json.String ev.name);
         ("cat", Json.String cat);
         ("ph", Json.String "i");
         ("s", Json.String "t");
         ("ts", Json.Int ev.step);
       ]
      @ common ev)
  in
  let flow ev ph bp =
    record
      ([
         ("name", Json.String ev.name);
         ("cat", Json.String "flow");
         ("ph", Json.String ph);
       ]
      @ bp
      @ [
          ("id", Json.Int ev.arg);
          ("ts", Json.Int ev.step);
          ("pid", Json.Int 1);
          ("tid", Json.Int ev.tid);
        ])
  in
  let stacks : (int, (string * int * int) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  (* An orphaned Begin (its End fell off the ring, or never came) degrades
     to an "op-open" point — the same degradation an orphaned End gets —
     instead of silently blocking every outer span from pairing. *)
  let orphan_begin tid (name, step, arg) =
    instant { step; tid; kind = Begin; name; arg } "op-open"
  in
  List.iter
    (fun ev ->
      match ev.kind with
      | Begin -> (
          let s = stack ev.tid in
          s := (ev.name, ev.step, ev.arg) :: !s)
      | End -> (
          let s = stack ev.tid in
          let rec close = function
            | (name, t0, arg) :: rest when name = ev.name ->
                s := rest;
                record
                  ([
                     ("name", Json.String name);
                     ("cat", Json.String "op");
                     ("ph", Json.String "X");
                     ("ts", Json.Int t0);
                     ("dur", Json.Int (max 0 (ev.step - t0)));
                   ]
                  @ common { ev with arg })
            | orphan :: rest ->
                (* A deeper Begin matches: the intervening Begin lost its
                   End to the ring. Degrade it and keep pairing. *)
                s := rest;
                orphan_begin ev.tid orphan;
                close rest
            | [] ->
                (* Begin fell off the ring: keep the evidence as a point. *)
                instant ev "op-end"
          in
          if List.exists (fun (name, _, _) -> name = ev.name) !s then
            close !s
          else instant ev "op-end")
      | Retry -> instant ev "retry"
      | Free -> instant ev "free"
      | Fault -> instant ev "fault"
      | Instant -> instant ev "instant"
      | Flow_out ->
          (* Chrome flow-event arrows: "s" (start) at the winning write,
             "f" (finish, binding to the enclosing slice) at the doomed
             attempt; [arg] carries the flow id that pairs them. *)
          flow ev "s" []
      | Flow_in -> flow ev "f" [ ("bp", Json.String "e") ])
    evs;
  (* Spans still open when the trace was cut: render as points too. *)
  Hashtbl.iter
    (fun tid s -> List.iter (orphan_begin tid) !s)
    stacks;
  (* Run metadata up front so a saved trace is self-describing: seed,
     rc mode, fault plan, obs flags — everything needed to replay it. *)
  Json.Object
    [
      ("displayTimeUnit", Json.String "ms");
      ( "metadata",
        Json.Object (List.map (fun (k, v) -> (k, Json.String v)) meta) );
      ("traceEvents", Json.Array (List.rev !records));
    ]

let to_chrome_json t = chrome_json_of_events ~meta:(meta t) (events t)

let timeline_of_events ?(dropped = 0) ?(meta = []) evs =
  let buf = Buffer.create 1024 in
  if dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "... %d earlier events dropped\n" dropped);
  List.iter
    (fun ev ->
      Buffer.add_string buf
        (Printf.sprintf "%8d  t%-3d %-8s %-24s %d\n" ev.step ev.tid
           (kind_name ev.kind) ev.name ev.arg))
    evs;
  Buffer.add_string buf
    (Printf.sprintf "-- %d retained, %d dropped\n" (List.length evs) dropped);
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf "-- meta %s=%s\n" k v))
    meta;
  Buffer.contents buf

let to_timeline t = timeline_of_events ~dropped:(dropped t) ~meta:(meta t) (events t)

let pp ppf t = Format.pp_print_string ppf (to_timeline t)
