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

module Int_table = Lfrc_util.Int_table

type t = {
  epoch : int;  (* parked adjustments that trigger an automatic flush *)
  buffers : Int_table.t E.Per_thread.t;  (* per thread: addr -> net *)
  lock : Mutex.t;
  mutable park_ops : int;  (* park events since the last drain *)
  mutable in_flush : bool;
  mutable flush_tid : int;  (* owner of the flush flag, while held *)
  (* Deltas the in-progress flush has drained but not yet applied; keeping
     them here (not in the flusher's OCaml locals) means a crashed flusher
     loses nothing — recovery re-parks them and a later flush lands them. *)
  applying : Int_table.t;
  (* The flush round in hand: its (addr, net) pairs in flush order, in
     the first entries ([take_round] returns how many). Only the
     flush-flag holder uses them, and they are a copy — [applying] stays
     the record. *)
  mutable round_addrs : int array;
  mutable round_nets : int array;
}

type state = t

let create ~epoch =
  {
    epoch = max 1 epoch;
    buffers = E.Per_thread.create (fun () -> Int_table.create 16);
    lock = Mutex.create ();
    park_ops = 0;
    in_flush = false;
    flush_tid = -1;
    applying = Int_table.create 0;
    round_addrs = [||];
    round_nets = [||];
  }

let park t ~addr ~delta =
  let slot = Lfrc_sched.Sched.slot () in
  Mutex.lock t.lock;
  (* A +1 and a -1 on the same address cancel right here, without ever
     touching the heap count — the coalescing fast path. *)
  Int_table.add (E.Per_thread.get t.buffers slot) addr delta;
  t.park_ops <- t.park_ops + 1;
  let parked = t.park_ops in
  Mutex.unlock t.lock;
  parked

let parked t =
  Mutex.lock t.lock;
  let addrs =
    Array.fold_left
      (fun acc buf -> Int_table.keys buf @ acc)
      [] (E.Per_thread.made t.buffers)
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

(* Add every entry of [src] into [dst]; returns how many there were. *)
let merge_into dst src =
  let n = Int_table.length src in
  for i = 0 to n - 1 do
    Int_table.add dst (Int_table.key src i) (Int_table.value src i)
  done;
  n

let drain_into_applying t =
  Mutex.lock t.lock;
  let had = ref (t.park_ops > 0) in
  let bufs = E.Per_thread.made t.buffers in
  for i = 0 to Array.length bufs - 1 do
    if merge_into t.applying bufs.(i) > 0 then had := true;
    Int_table.clear bufs.(i)
  done;
  t.park_ops <- 0;
  Mutex.unlock t.lock;
  !had

(* Remove [addr]'s parked deltas from every buffer, returning their sum. *)
let steal_parked t addr =
  let bufs = E.Per_thread.made t.buffers in
  let net = ref 0 in
  for i = 0 to Array.length bufs - 1 do
    net := !net + Int_table.take bufs.(i) addr
  done;
  !net

(* Steal any parked delta for [addr] from the per-thread buffers AND the
   applying table, returning the net. Used by the zero-detect path so a
   concurrent flush's staged delta cannot resurrect or double-free. *)
let absorb t ~addr =
  Mutex.lock t.lock;
  let stolen = steal_parked t addr + Int_table.take t.applying addr in
  Mutex.unlock t.lock;
  stolen

let apply_done t ~addr =
  Mutex.lock t.lock;
  ignore (Int_table.take t.applying addr);
  Mutex.unlock t.lock

(* Fold any freshly parked deltas for [addr] into its staged entry and
   return the staged net. The entry stays staged — the caller unstages
   with [apply_done] once the heap CAS lands — so a crash in between
   loses nothing. *)
let restage t ~addr =
  Mutex.lock t.lock;
  Int_table.add t.applying addr (steal_parked t addr);
  let net = Int_table.find t.applying addr in
  Mutex.unlock t.lock;
  net

(* If (and only if) the thread holding the flush flag crashed, re-park its
   drained-but-unapplied deltas and release the flag. A live flusher always
   clears the flag itself, even when the flush raises, so a stuck flag
   implies a dead owner.
   Returns the number of re-parked deltas. *)
let recover_flush t ~crashed =
  Mutex.lock t.lock;
  let n = ref 0 in
  if t.in_flush && List.mem t.flush_tid crashed then begin
    let buf =
      E.Per_thread.get t.buffers (Lfrc_sched.Limits.slot_of_tid t.flush_tid)
    in
    n := merge_into buf t.applying;
    Int_table.clear t.applying;
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
      match E.Per_thread.of_tid t.buffers tid with
      | Some buf -> n := !n + Int_table.length buf
      | None -> ())
    tids;
  Mutex.unlock t.lock;
  !n

let applying_addrs t =
  Mutex.lock t.lock;
  let addrs = Int_table.keys t.applying in
  Mutex.unlock t.lock;
  addrs

(* --- flush order ---

   Larger nets land first, so a count only dips to zero once its pending
   increments are in; ascending address breaks ties for deterministic
   replay. A round is sorted in place over its two arrays by a shellsort:
   no allocation, and fast on the small rounds a flush mostly sees
   (about 20 pairs) as on the rare large one. *)

(* One gapped insertion pass: entry [i] moves down past every entry [gap]
   apart that lands after it. *)
let shell_pass (a : int array) (v : int array) n gap =
  for i = gap to n - 1 do
    let ai = a.(i) and vi = v.(i) in
    let j = ref i in
    while
      !j >= gap
      &&
      let k = !j - gap in
      v.(k) < vi || (v.(k) = vi && a.(k) > ai)
    do
      a.(!j) <- a.(!j - gap);
      v.(!j) <- v.(!j - gap);
      j := !j - gap
    done;
    a.(!j) <- ai;
    v.(!j) <- vi
  done

(* Ciura's gaps, extended by x2.25 past the table; the last pass (gap 1)
   is a plain insertion sort, so any decreasing sequence is correct. *)
let gaps = [| 1; 4; 10; 23; 57; 132; 301; 701; 1750 |]

let sort_round a v n =
  let g = ref 1750 in
  while !g * 9 / 4 < n do
    g := !g * 9 / 4
  done;
  while !g > 1750 do
    shell_pass a v n !g;
    g := !g * 4 / 9
  done;
  for k = Array.length gaps - 1 downto 0 do
    if gaps.(k) < n then shell_pass a v n gaps.(k)
  done

(* Copy the staged deltas into the round arrays, in flush order; returns
   the round's length. *)
let take_round t =
  Mutex.lock t.lock;
  let n = Int_table.length t.applying in
  if Array.length t.round_addrs < n then begin
    let cap = max n (2 * Array.length t.round_addrs) in
    t.round_addrs <- Array.make cap 0;
    t.round_nets <- Array.make cap 0
  end;
  for i = 0 to n - 1 do
    t.round_addrs.(i) <- Int_table.key t.applying i;
    t.round_nets.(i) <- Int_table.value t.applying i
  done;
  Mutex.unlock t.lock;
  sort_round t.round_addrs t.round_nets n;
  n

(* --- the flush ---

   Crash safety: every delta a flush is working on lives in the applying
   table (staged atomically out of the buffers), never only in the
   flusher's locals — the round arrays are a sorted copy. A CAS success
   unstages its delta in the same atomic step; a crash at any yield point
   leaves the leftovers staged, where they stay anchored and a recovery
   pass re-parks them for the next flush. *)

(* [addr]'s count reached zero: still atomic with the CAS, a delta parked
   while it was in flight (a late +1 from a racing store) resurrects the
   object instead of freeing it. Returns 1 if it freed [addr]. *)
let settle_zero t env addr =
  let late = absorb t ~addr in
  if late <> 0 then begin
    ignore (park t ~addr ~delta:late);
    0
  end
  else begin
    let heap = E.heap env and ln = E.lineage env in
    Lfrc_sanitize.Shadow.note_dying (E.sanitizer env) addr;
    E.begin_destroy env addr;
    for i = 0 to Heap.n_ptr_slots heap addr - 1 do
      let cell = Heap.ptr_cell heap addr i in
      let child = Dcas.read (E.dcas env) cell in
      if child <> Heap.null then begin
        (* Park the child's decrement and null the slot in one atomic
           step: the remaining non-null slots of this dead parent are
           exactly the drops not yet committed, so an adopter resuming a
           crashed flush never double-drops. *)
        if Lineage.enabled ln then
          Lineage.record ln ~op:"lfrc.flush" ~addr:child Lineage.Defer_dec;
        ignore (park t ~addr:child ~delta:(-1));
        Cell.set cell Heap.null
      end
    done;
    E.free_obj env E.k_frees addr;
    E.end_destroy env addr;
    1
  end

(* Land [addr]'s staged net with one CAS, retrying until it lands.
   Returns 1 if the object died and was freed. *)
let rec apply t env addr =
  if addr = Heap.null then 0
  else begin
    let d = E.dcas env in
    let rc = Heap.rc_cell (E.heap env) addr in
    Lfrc_obs.Blame.bind_owner (E.blame env) ~cell:(Cell.id rc) ~addr;
    let oldrc = Dcas.read d rc in
    (* Fold in anything parked up to this instant so the CAS below applies
       the complete net and a success at zero means zero adjustments
       remain anywhere; the net stays staged until the CAS lands. *)
    let v = restage t ~addr in
    if v = 0 then 0
    else begin
      Metrics.incr (E.metrics env) k_rc_flush_cas;
      if Dcas.cas d rc oldrc (oldrc + v) then begin
        (* No yield since the CAS: unstaging is atomic with it, so a
           crashed flush can never re-apply a landed delta. *)
        apply_done t ~addr;
        let ln = E.lineage env in
        if Lineage.enabled ln then begin
          Lineage.record_rc ln ~op:"lfrc.flush" ~addr ~old_rc:oldrc ~delta:v ();
          Lineage.record ln ~op:"lfrc.flush" ~addr (Lineage.Flush { net = v })
        end;
        if oldrc + v = 0 then settle_zero t env addr else 0
      end
      else begin
        E.retry env E.k_rc_retry;
        apply t env addr
      end
    end
  end

(* Drain, stage and apply rounds until a drain finds nothing: whatever
   the cascade parks lands in a later round. Returns the objects freed. *)
let rec rounds t env freed =
  ignore (drain_into_applying t);
  let n = take_round t in
  if n = 0 then freed
  else begin
    let freed = ref freed in
    for i = 0 to n - 1 do
      freed := !freed + apply t env t.round_addrs.(i)
    done;
    rounds t env !freed
  end

let flush t env =
  if not (try_begin_flush t) then 0
  else begin
    Metrics.incr (E.metrics env) k_rc_flush;
    match rounds t env 0 with
    | freed ->
        end_flush t;
        freed
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        end_flush t;
        Printexc.raise_with_backtrace e bt
  end

(* --- the delivery hooks --- *)

(* Park one ±1 for a non-null [p], returning the park count for the epoch
   trigger. *)
let park_counted t env p delta =
  Metrics.incr (E.metrics env) (if delta > 0 then k_defer_inc else k_defer_dec);
  E.record_lineage env ~addr:p
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
  E.begin_publish env ~weight:1 p;
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
