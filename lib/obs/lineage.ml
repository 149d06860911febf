module Sched = Lfrc_sched.Sched

type kind =
  | Alloc of { gen : int }
  | Rc of { old_rc : int; delta : int }
  | Retire
  | Defer
  | Defer_inc
  | Defer_dec
  | Flush of { net : int }
  | Free of { gen : int }
  | Adopt of { owner : int }
  | Wborrow
  | Wshare

type event = { step : int; tid : int; kind : kind; op : string }

(* One tracked object: a bounded ring of its lifecycle events. The ring
   keeps the most recent [cap] events — the tail of the trajectory is what
   the forensic reports join against (the final drop, the second free) —
   and counts what fell off so a report can say how much history is
   missing. *)
type entry = {
  addr : int;
  buf : event array;
  mutable total : int;  (* events ever recorded; buf index = total mod cap *)
  mutable last_rc : int;  (* count after the latest transition *)
  mutable allocs : int;  (* incarnations seen *)
  mutable frees : int;
}

type reg = {
  lock : Mutex.t;
  ring : int;  (* per-object ring capacity *)
  objects : (int, entry) Hashtbl.t;
  op_stacks : (int, string list ref) Hashtbl.t;  (* tid -> op-name stack *)
  mutable recorded : int;
  mutable dropped : int;  (* global drop accounting across all rings *)
}

(* Same single-branch off switch as the disabled Metrics singleton: every
   recording operation pattern-matches once and the Disabled arm falls
   straight through. *)
type t = Disabled | On of reg

let no_op = "?"

let dummy = { step = 0; tid = 0; kind = Retire; op = no_op }

let default_ring = 64

let create ?(ring = default_ring) () =
  if ring <= 0 then Disabled
  else
    On
      {
        lock = Mutex.create ();
        ring;
        objects = Hashtbl.create 64;
        op_stacks = Hashtbl.create 8;
        recorded = 0;
        dropped = 0;
      }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

let locked r f = Mutex.protect r.lock f

(* --- originating-op context ---

   {!Lfrc_core.Lfrc}'s span shim pushes the operation name for the current
   simulated thread on entry and pops it on exit, so every event recorded
   while the operation runs is attributed to it (a destroy embedded in a
   load attributes to the destroy span, which nests inside the load). *)

let op_begin t name =
  match t with
  | Disabled -> ()
  | On r ->
      let tid = Sched.tid () in
      locked r (fun () ->
          match Hashtbl.find_opt r.op_stacks tid with
          | Some s -> s := name :: !s
          | None -> Hashtbl.add r.op_stacks tid (ref [ name ]))

let op_end t =
  match t with
  | Disabled -> ()
  | On r ->
      let tid = Sched.tid () in
      locked r (fun () ->
          match Hashtbl.find_opt r.op_stacks tid with
          | Some ({ contents = _ :: rest } as s) -> s := rest
          | _ -> ())

let current_op_unlocked r tid =
  match Hashtbl.find_opt r.op_stacks tid with
  | Some { contents = op :: _ } -> op
  | _ -> no_op

(* --- recording --- *)

let entry_of r addr =
  match Hashtbl.find_opt r.objects addr with
  | Some e -> e
  | None ->
      let e =
        {
          addr;
          buf = Array.make r.ring dummy;
          total = 0;
          last_rc = 0;
          allocs = 0;
          frees = 0;
        }
      in
      Hashtbl.add r.objects addr e;
      e

let push r e ev =
  if e.total >= r.ring then r.dropped <- r.dropped + 1;
  e.buf.(e.total mod r.ring) <- ev;
  e.total <- e.total + 1;
  r.recorded <- r.recorded + 1

let record t ?op ~addr kind =
  match t with
  | Disabled -> ()
  | On r ->
      let step = Sched.steps_so_far () and tid = Sched.tid () in
      locked r (fun () ->
          let op =
            match op with Some op -> op | None -> current_op_unlocked r tid
          in
          let e = entry_of r addr in
          (match kind with
          | Alloc _ ->
              e.allocs <- e.allocs + 1;
              e.last_rc <- 1
          | Rc { old_rc; delta } -> e.last_rc <- old_rc + delta
          | Free _ -> e.frees <- e.frees + 1
          (* Parked deltas do not move the heap count; the paired Rc event
             emitted when a flush applies them does. Likewise an adoption
             only re-homes a reference — the adopter's own destroy/flush
             records any count movement — and a weight borrow/share moves
             weight between carriers without touching the total. *)
          | Retire | Defer | Defer_inc | Defer_dec | Flush _ | Adopt _
          | Wborrow | Wshare ->
              ());
          push r e { step; tid; kind; op })

let record_rc t ?op ~addr ~old_rc ~delta () =
  record t ?op ~addr (Rc { old_rc; delta })

(* --- queries --- *)

let recorded = function Disabled -> 0 | On r -> r.recorded

let dropped = function Disabled -> 0 | On r -> r.dropped

let tracked = function
  | Disabled -> []
  | On r ->
      locked r (fun () ->
          Hashtbl.fold (fun addr _ acc -> addr :: acc) r.objects []
          |> List.sort compare)

let events t ~addr =
  match t with
  | Disabled -> []
  | On r ->
      locked r (fun () ->
          match Hashtbl.find_opt r.objects addr with
          | None -> []
          | Some e ->
              let n = min e.total r.ring in
              let start = e.total - n in
              List.init n (fun i -> e.buf.((start + i) mod r.ring)))

type state = {
  st_rc : int;  (** count after the latest recorded transition *)
  st_events : int;  (** events ever recorded (retained + overwritten) *)
  st_allocs : int;
  st_frees : int;
}

let state t ~addr =
  match t with
  | Disabled -> None
  | On r ->
      locked r (fun () ->
          Option.map
            (fun e ->
              {
                st_rc = e.last_rc;
                st_events = e.total;
                st_allocs = e.allocs;
                st_frees = e.frees;
              })
            (Hashtbl.find_opt r.objects addr))

let last_matching t ~addr pred =
  List.fold_left
    (fun acc ev -> if pred ev then Some ev else acc)
    None (events t ~addr)

let last_drop t ~addr =
  last_matching t ~addr (fun ev ->
      match ev.kind with Rc { delta; _ } -> delta < 0 | _ -> false)

let last_event t ~addr =
  match events t ~addr with
  | [] -> None
  | evs -> Some (List.nth evs (List.length evs - 1))

let top t ~n =
  match t with
  | Disabled -> []
  | On r ->
      let all =
        locked r (fun () ->
            Hashtbl.fold (fun addr e acc -> (addr, e.total) :: acc) r.objects [])
      in
      let sorted =
        List.sort (fun (a, na) (b, nb) -> compare (nb, a) (na, b)) all
      in
      List.filteri (fun i _ -> i < n) sorted

(* --- rendering --- *)

let kind_name = function
  | Alloc { gen } -> Printf.sprintf "alloc#%d" gen
  | Rc { delta; old_rc } ->
      Printf.sprintf "rc%+d (%d->%d)" delta old_rc (old_rc + delta)
  | Retire -> "retire"
  | Defer -> "defer"
  | Defer_inc -> "defer+1"
  | Defer_dec -> "defer-1"
  | Flush { net } -> Printf.sprintf "flush net%+d" net
  | Free { gen } -> Printf.sprintf "free#%d" gen
  | Adopt { owner } -> Printf.sprintf "adopt(owner=t%d)" owner
  | Wborrow -> "weight-borrow"
  | Wshare -> "weight-share"

let pp_event ppf ev =
  Format.fprintf ppf "%8d  t%-3d %-16s %s" ev.step ev.tid (kind_name ev.kind)
    ev.op

let timeline t ~addr =
  let buf = Buffer.create 512 in
  (match state t ~addr with
  | None -> Buffer.add_string buf (Printf.sprintf "addr %d: no history\n" addr)
  | Some st ->
      Buffer.add_string buf
        (Printf.sprintf
           "addr %d: rc=%d allocs=%d frees=%d events=%d (ring keeps last %d)\n"
           addr st.st_rc st.st_allocs st.st_frees st.st_events
           (match t with On r -> r.ring | Disabled -> 0));
      let evs = events t ~addr in
      if st.st_events > List.length evs then
        Buffer.add_string buf
          (Printf.sprintf "... %d earlier events dropped\n"
             (st.st_events - List.length evs));
      List.iter
        (fun ev ->
          Buffer.add_string buf
            (Printf.sprintf "%8d  t%-3d %-16s %s\n" ev.step ev.tid
               (kind_name ev.kind) ev.op))
        evs);
  Buffer.contents buf

(* Chrome export: one track per object (tid := addr), so an object's life
   renders as a span from alloc to free with its count transitions as
   instants — reusing {!Tracer}'s Begin/End pairing, orphan degradation
   included (an object still live at export shows as an open point). *)
let tracer_events t ~addr =
  List.map
    (fun ev ->
      let name k = Printf.sprintf "%s [%s]" k ev.op in
      match ev.kind with
      | Alloc { gen } ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.Begin;
            name = Printf.sprintf "obj %d#%d" addr gen;
            arg = 1;
          }
      | Free { gen } ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.End;
            name = Printf.sprintf "obj %d#%d" addr gen;
            arg = 0;
          }
      | Rc { old_rc; delta } ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.Instant;
            name = name (Printf.sprintf "rc%+d" delta);
            arg = old_rc + delta;
          }
      | Retire ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.Instant;
            name = name "retire";
            arg = 0;
          }
      | Defer ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.Instant;
            name = name "defer";
            arg = 0;
          }
      | Defer_inc ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.Instant;
            name = name "defer+1";
            arg = 1;
          }
      | Defer_dec ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.Instant;
            name = name "defer-1";
            arg = -1;
          }
      | Flush { net } ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.Instant;
            name = name (Printf.sprintf "flush net%+d" net);
            arg = net;
          }
      | Adopt { owner } ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.Instant;
            name = name (Printf.sprintf "adopt(owner=t%d)" owner);
            arg = owner;
          }
      | Wborrow ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.Instant;
            name = name "weight-borrow";
            arg = 1;
          }
      | Wshare ->
          {
            Tracer.step = ev.step;
            tid = addr;
            kind = Tracer.Instant;
            name = name "weight-share";
            arg = 1;
          })
    (events t ~addr)

let to_chrome_json ?addr t =
  let addrs = match addr with Some a -> [ a ] | None -> tracked t in
  Tracer.chrome_json_of_events
    (List.concat_map (fun a -> tracer_events t ~addr:a) addrs)

(* --- forensic reports ---

   Both take the address lists a post-mortem audit produced
   ({!Lfrc_faults.Audit} findings); keeping the join on plain addresses
   here avoids a dependency cycle (faults sits above the core, which sits
   above this library). *)

let describe_culprit buf t addr =
  match last_drop t ~addr with
  | Some ev ->
      Buffer.add_string buf
        (Printf.sprintf
           "  last reference dropped by op=%s at step %d (tid %d), %s\n" ev.op
           ev.step ev.tid (kind_name ev.kind))
  | None -> (
      match last_event t ~addr with
      | Some ev ->
          Buffer.add_string buf
            (Printf.sprintf
               "  no drop recorded; last touched by op=%s at step %d (tid \
                %d), %s\n"
               ev.op ev.step ev.tid (kind_name ev.kind))
      | None -> Buffer.add_string buf "  no lineage recorded\n")

let leak_report t ~addrs =
  let buf = Buffer.create 512 in
  if addrs = [] then Buffer.add_string buf "no leaked objects\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%d leaked object(s):\n" (List.length addrs));
    List.iter
      (fun addr ->
        let rc =
          match state t ~addr with
          | Some st -> string_of_int st.st_rc
          | None -> "?"
        in
        Buffer.add_string buf (Printf.sprintf "leak addr=%d rc=%s\n" addr rc);
        describe_culprit buf t addr)
      addrs
  end;
  Buffer.contents buf

let double_free_report t ~addrs =
  let buf = Buffer.create 512 in
  if addrs = [] then Buffer.add_string buf "no over-released objects\n"
  else
    List.iter
      (fun addr ->
        Buffer.add_string buf (Printf.sprintf "over-release addr=%d\n" addr);
        (* The final decrement that took (or would take) the count below
           zero, or the extra free itself. *)
        (match
           last_matching t ~addr (fun ev ->
               match ev.kind with
               | Rc { old_rc; delta } -> old_rc + delta < 0
               | _ -> false)
         with
        | Some ev ->
            Buffer.add_string buf
              (Printf.sprintf
                 "  over-released by op=%s at step %d (tid %d), %s\n" ev.op
                 ev.step ev.tid (kind_name ev.kind))
        | None -> describe_culprit buf t addr);
        match state t ~addr with
        | Some st when st.st_frees > st.st_allocs ->
            Buffer.add_string buf
              (Printf.sprintf "  frees=%d exceed allocs=%d\n" st.st_frees
                 st.st_allocs)
        | _ -> ())
      addrs;
  Buffer.contents buf

let summary t =
  match t with
  | Disabled -> "lineage disabled\n"
  | On r ->
      locked r (fun () ->
          Printf.sprintf
            "lineage: %d object(s) tracked, %d event(s) recorded, %d \
             dropped (ring %d per object)\n"
            (Hashtbl.length r.objects) r.recorded r.dropped r.ring)
