(* Deferred-rc coalescing (PPoPP-2022-style batched count updates).

   The ±1 count traffic from store/copy/cas/dcas increments and from every
   destroy is parked in per-thread buffers instead of CASing the heap
   count, and a global flush applies the per-address *net* deltas — one
   CAS per address instead of one per adjustment. [load]'s DCAS stays
   eager: it is the safety mechanism (increment-while-checking-the-
   pointer), not an accounting convenience.

   Why coalescing preserves the weak invariant: a parked +1 only ever
   under-counts (heap rc may be below the true reference count, never
   above), and a parked -1 leaves the heap rc conservatively high — an
   object is freed only by the flush, after its net delta lands at zero
   *and* a same-instant re-check shows no adjustment was parked while the
   CAS was in flight. Since in deferred mode no eager decrement exists,
   nothing else can free on a transient zero. DESIGN.md §12 carries the
   full argument.

   The buffers live here — not in thread-locals — so a crashed thread's
   parked deltas survive it and a later flush still applies them; until
   then the parked addresses are audit anchors. Every table operation is
   mutex-only (no scheduler yield points), so in a simulation each is
   atomic with respect to interleaving: a parked delta is either fully
   visible to a concurrent drain or not parked yet, never half-recorded. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module Metrics = Lfrc_obs.Metrics
module Lineage = Lfrc_obs.Lineage
module E = Env_base

type env = E.t

let k_rc_flush = Metrics.key "lfrc.rc_flush"
let k_rc_flush_cas = Metrics.key "lfrc.rc_flush_cas"
let k_defer_inc = Metrics.key "lfrc.defer_inc"
let k_defer_dec = Metrics.key "lfrc.defer_dec"
let k_rc_parked = Metrics.key "lfrc.rc_parked"

type t = {
  epoch : int;  (* parked adjustments that trigger an automatic flush *)
  buffers : (int, (int, int) Hashtbl.t) Hashtbl.t;  (* tid -> addr -> net *)
  lock : Mutex.t;
  mutable park_ops : int;  (* park events since the last drain *)
  mutable in_flush : bool;
  mutable flush_tid : int;  (* owner of the flush flag, while held *)
  (* Deltas the in-progress flush has drained but not yet applied; keeping
     them here (not in the flusher's OCaml locals) means a crashed flusher
     loses nothing — recovery re-parks them and a later flush lands them. *)
  applying : (int, int) Hashtbl.t;
}

type state = t

let create ~epoch =
  {
    epoch = max 1 epoch;
    buffers = Hashtbl.create 8;
    lock = Mutex.create ();
    park_ops = 0;
    in_flush = false;
    flush_tid = -1;
    applying = Hashtbl.create 32;
  }

let buffer_of t tid =
  match Hashtbl.find_opt t.buffers tid with
  | Some b -> b
  | None ->
      let b = Hashtbl.create 16 in
      Hashtbl.add t.buffers tid b;
      b

(* Add [v] to [addr]'s net in [tbl], dropping the entry at zero. *)
let net_into tbl addr v =
  let net = (match Hashtbl.find_opt tbl addr with Some p -> p | None -> 0) + v in
  if net = 0 then Hashtbl.remove tbl addr else Hashtbl.replace tbl addr net

let park t ~addr ~delta =
  let tid = Lfrc_sched.Sched.tid () in
  Mutex.lock t.lock;
  (* A +1 and a -1 on the same address cancel right here, without ever
     touching the heap count — the coalescing fast path. *)
  net_into (buffer_of t tid) addr delta;
  t.park_ops <- t.park_ops + 1;
  let parked = t.park_ops in
  Mutex.unlock t.lock;
  parked

let parked t =
  Mutex.lock t.lock;
  let addrs =
    Hashtbl.fold
      (fun _tid buf acc -> Hashtbl.fold (fun addr _ acc -> addr :: acc) buf acc)
      t.buffers []
  in
  Mutex.unlock t.lock;
  addrs

let try_begin_flush t =
  Mutex.lock t.lock;
  let won = not t.in_flush in
  if won then begin
    t.in_flush <- true;
    t.flush_tid <- Lfrc_sched.Sched.tid ()
  end;
  Mutex.unlock t.lock;
  won

let end_flush t =
  Mutex.lock t.lock;
  t.in_flush <- false;
  t.flush_tid <- -1;
  Mutex.unlock t.lock

(* --- crash-safe flush staging ---

   A flush drains parked deltas into [applying] (atomically, under the
   same lock) and removes each entry only once its heap effect has landed.
   The table — not the flusher's OCaml locals — is the authoritative record
   of drained-but-unapplied deltas, so a flusher that crashes mid-apply
   loses nothing: [recover_flush] re-parks the leftovers and releases the
   flush flag, and the next flush lands them. *)

let drain_into_applying t =
  Mutex.lock t.lock;
  let had = t.park_ops > 0 || Hashtbl.length t.buffers > 0 in
  Hashtbl.iter
    (fun _tid buf -> Hashtbl.iter (fun addr v -> net_into t.applying addr v) buf)
    t.buffers;
  Hashtbl.reset t.buffers;
  t.park_ops <- 0;
  Mutex.unlock t.lock;
  had

let applying_snapshot t =
  Mutex.lock t.lock;
  let l = Hashtbl.fold (fun addr v acc -> (addr, v) :: acc) t.applying [] in
  Mutex.unlock t.lock;
  l

(* Remove [addr]'s parked deltas from every buffer, adding them to [net]. *)
let steal_parked t addr net =
  Hashtbl.iter
    (fun _tid buf ->
      match Hashtbl.find_opt buf addr with
      | Some v ->
          net := !net + v;
          Hashtbl.remove buf addr
      | None -> ())
    t.buffers

(* Steal any parked delta for [addr] from the per-thread buffers AND the
   applying table, returning the net. Used by the zero-detect path so a
   concurrent flush's staged delta cannot resurrect or double-free. *)
let absorb t ~addr =
  Mutex.lock t.lock;
  let stolen = ref 0 in
  steal_parked t addr stolen;
  (match Hashtbl.find_opt t.applying addr with
  | Some v ->
      stolen := !stolen + v;
      Hashtbl.remove t.applying addr
  | None -> ());
  Mutex.unlock t.lock;
  !stolen

let apply_done t ~addr =
  Mutex.lock t.lock;
  Hashtbl.remove t.applying addr;
  Mutex.unlock t.lock

(* Fold any freshly parked deltas for [addr] into its staged entry and
   return the staged net. The entry stays staged — the caller unstages
   with [apply_done] once the heap CAS lands — so a crash in between
   loses nothing. *)
let restage t ~addr =
  Mutex.lock t.lock;
  let net =
    ref (match Hashtbl.find_opt t.applying addr with Some v -> v | None -> 0)
  in
  steal_parked t addr net;
  if !net = 0 then Hashtbl.remove t.applying addr
  else Hashtbl.replace t.applying addr !net;
  Mutex.unlock t.lock;
  !net

(* If (and only if) the thread holding the flush flag crashed, re-park its
   drained-but-unapplied deltas and release the flag. A live flusher always
   clears both itself (Fun.protect), so a stuck flag implies a dead owner.
   Returns the number of re-parked deltas. *)
let recover_flush t ~crashed =
  Mutex.lock t.lock;
  let n = ref 0 in
  if t.in_flush && List.mem t.flush_tid crashed then begin
    let buf = buffer_of t t.flush_tid in
    Hashtbl.iter
      (fun addr v ->
        incr n;
        net_into buf addr v)
      t.applying;
    Hashtbl.reset t.applying;
    if !n > 0 then t.park_ops <- t.park_ops + !n;
    t.in_flush <- false;
    t.flush_tid <- -1
  end;
  Mutex.unlock t.lock;
  !n

let parked_of t ~tids =
  Mutex.lock t.lock;
  let n = ref 0 in
  List.iter
    (fun tid ->
      match Hashtbl.find_opt t.buffers tid with
      | Some buf -> n := !n + Hashtbl.length buf
      | None -> ())
    tids;
  Mutex.unlock t.lock;
  !n

let applying_addrs t =
  Mutex.lock t.lock;
  let addrs = Hashtbl.fold (fun addr _ acc -> addr :: acc) t.applying [] in
  Mutex.unlock t.lock;
  addrs

(* --- the flush --- *)

let flush t env =
  if not (try_begin_flush t) then 0
  else begin
    let metrics = E.metrics env in
    let heap = E.heap env in
    let d = E.dcas env in
    let ln = E.lineage env in
    let freed = ref 0 in
    Fun.protect ~finally:(fun () -> end_flush t) @@ fun () ->
    Metrics.incr metrics k_rc_flush;
    (* Crash safety: every delta this flush is working on lives in the
       applying table (staged atomically out of the buffers), never only
       in this function's locals. A CAS success unstages its delta in the
       same atomic step; a crash at any yield point leaves the leftovers
       staged, where they stay anchored and a recovery pass re-parks them
       for the next flush. *)
    let rec apply addr =
      if addr <> Heap.null then begin
        let rc = Heap.rc_cell heap addr in
        Lfrc_obs.Blame.bind_owner (E.blame env) ~cell:(Cell.id rc) ~addr;
        let oldrc = Dcas.read d rc in
        (* Fold in anything parked up to this instant so the CAS below
           applies the complete net and a success at zero means zero
           adjustments remain anywhere; the net stays staged until the CAS
           lands. *)
        let v = restage t ~addr in
        if v <> 0 then begin
          Metrics.incr metrics k_rc_flush_cas;
          if Dcas.cas d rc oldrc (oldrc + v) then begin
            (* No yield since the CAS: unstaging is atomic with it, so a
               crashed flush can never re-apply a landed delta. *)
            apply_done t ~addr;
            Lineage.record_rc ln ~op:"lfrc.flush" ~addr ~old_rc:oldrc ~delta:v
              ();
            Lineage.record ln ~op:"lfrc.flush" ~addr (Lineage.Flush { net = v });
            if oldrc + v = 0 then begin
              (* Still atomic with the CAS: a delta parked while it was in
                 flight (a late +1 from a racing store) resurrects the
                 object instead of freeing it. *)
              let late = absorb t ~addr in
              if late <> 0 then ignore (park t ~addr ~delta:late)
              else begin
                Lfrc_sanitize.Shadow.note_dying (E.sanitizer env) addr;
                E.begin_destroy env addr;
                let n = Heap.n_ptr_slots heap addr in
                for i = 0 to n - 1 do
                  let cell = Heap.ptr_cell heap addr i in
                  let child = Dcas.read d cell in
                  if child <> Heap.null then begin
                    (* Park the child's decrement and null the slot in one
                       atomic step: the remaining non-null slots of this
                       dead parent are exactly the drops not yet committed,
                       so an adopter resuming a crashed flush never
                       double-drops. *)
                    Lineage.record ln ~op:"lfrc.flush" ~addr:child
                      Lineage.Defer_dec;
                    ignore (park t ~addr:child ~delta:(-1));
                    Cell.set cell Heap.null
                  end
                done;
                E.free_obj env E.k_frees addr;
                incr freed;
                E.end_destroy env addr
              end
            end
          end
          else begin
            E.retry env E.k_rc_retry;
            apply addr
          end
        end
      end
    in
    let rec rounds () =
      ignore (drain_into_applying t);
      let work = applying_snapshot t in
      if work <> [] then begin
        (* Positive nets land before negative ones so a count only dips to
           zero once its pending increments are in; address order breaks
           ties for deterministic replay. *)
        let work =
          List.sort
            (fun (a1, v1) (a2, v2) ->
              if v1 <> v2 then compare v2 v1 else compare a1 a2)
            work
        in
        List.iter (fun (addr, _) -> apply addr) work;
        rounds ()
      end
    in
    rounds ();
    !freed
  end

(* --- the delivery hooks --- *)

(* Park one ±1 for a non-null [p], returning the park count for the epoch
   trigger. *)
let park_counted t env p delta =
  Metrics.incr (E.metrics env) (if delta > 0 then k_defer_inc else k_defer_dec);
  Lineage.record (E.lineage env) ~addr:p
    (if delta > 0 then Lineage.Defer_inc else Lineage.Defer_dec);
  park t ~addr:p ~delta

let after_park t env parked =
  Metrics.set_gauge (E.metrics env) k_rc_parked parked;
  if parked >= t.epoch then ignore (flush t env)

let mode t = E.Deferred_rc { epoch = t.epoch }

(* [load] stays eager: its DCAS is the safety mechanism, not an
   accounting convenience. *)
let borrow _ _ ~src:_ _ = false
let load_mint _ = 1
let loaded _ env ~src a ~old_rc = Rc_eager.loaded () env ~src a ~old_rc

(* The +1 is registered as a publication before the flush trigger can
   yield. *)
let publish t env p =
  let parked = park_counted t env p 1 in
  E.begin_publish env p;
  after_park t env parked

(* The increment can trigger a flush (which yields) before [dest] holds
   the pointer, so the +1 rides the publication registry until the
   assignment lands. *)
let acquire_copy t env p =
  if p <> Heap.null then publish t env p;
  true

let installed _ _ ~cell:_ ~old:_ _ ~owned:_ = ()
let retract _ _ _ = false

(* Zero detection (and the free) happens in the flush, which alone may
   move a heap count downward in this mode: a drop only parks. *)
let drop t env p =
  after_park t env (park_counted t env p (-1));
  false

(* Parking the decrement re-anchors the drop; consuming the registration
   in the same atomic step keeps exactly one anchor. *)
let release t env p =
  let parked = park_counted t env p (-1) in
  E.end_destroy env p;
  after_park t env parked;
  false

let claim _ _ ~cell:_ _ = ()
let nested_drop_span = true
let recursive_teardown = true

(* If the thread holding the flush flag died, its staged deltas go back to
   a parked buffer and the flag clears; the dead threads' own buffers stay
   parked and settle at the next flush. *)
let adopt t _ ~crashed =
  let restaged = recover_flush t ~crashed in
  restaged + parked_of t ~tids:crashed

let adopt_publication _ _ _ ~weight:_ = ()
let anchors t = parked t @ applying_addrs t
