(* Wait-free weighted rc (Blelloch–Wei split counts).

   The count word holds the object's *total weight*: the sum over every
   live reference of the weight that reference carries. Heap slots carry
   weight in [slots], keyed by cell id (absent = 1); entries are removed in
   the same atomic step that nulls or overwrites the slot, so recycled
   cell ids never inherit stale weight. Each thread's locals pool theirs
   in its pouch [pools]: addr -> (w, n), packed in one int, n covered
   refs sharing w pooled weight, w >= n — the side-table stand-in for the
   weight bits a real implementation packs into each local pointer word
   (untracked refs carry implicit weight 1). Count adjustments are
   single [Dcas.fetch_add]s — no retry loop anywhere on the rc path — and
   most copies/destroys move weight between carriers without touching
   the count at all. The Figure-2 DCAS survives only as [load]'s
   fallback on an exhausted slot.
   The weight invariant, fallback conditions and crash-recovery adoption
   are argued in DESIGN.md §17.

   Every table operation is mutex-only: atomic with respect to simulated
   interleaving, which is exactly the atomicity a real implementation
   gets from packing the weight bits into the pointer word it updates
   with one RMW. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module Metrics = Lfrc_obs.Metrics
module Lineage = Lfrc_obs.Lineage
module E = Env_base

type env = E.t

let k_weight_borrow = Metrics.key "lfrc.weight_borrow"
let k_weight_exhaust = Metrics.key "lfrc.weight_exhaust"
let k_weight_pub = Metrics.key "lfrc.weight_pub"
let k_weight_share = Metrics.key "lfrc.weight_share"
let k_weight_refill = Metrics.key "lfrc.weight_refill"
let k_weight_absorb = Metrics.key "lfrc.weight_absorb"
let k_weight_release = Metrics.key "lfrc.weight_release"
let k_adopt_weight = Metrics.key "lfrc.adopt_weight"

module Int_table = Lfrc_util.Int_table

(* A pouch entry packs (w, n) into one int, n in the low [n_bits] and w
   above, so adding two packed entries adds both fields (n never carries
   into w). Every live entry has n >= 1, so no live entry packs to 0, the
   table's "absent". The split bounds one thread's pouch entry to fewer
   than 2^24 covered references and 2^38 units of weight. *)
let n_bits = 24
let pack w n = (w lsl n_bits) lor n
let pouch_w p = p asr n_bits
let pouch_n p = p land ((1 lsl n_bits) - 1)

type t = {
  weight : int;  (* the batch minted per refill or publication *)
  pools : Int_table.t E.Per_thread.t;  (* per thread: addr -> packed (w, n) *)
  (* cell id -> carried weight - 1, so an untracked slot (weight 1) is
     absent *)
  slots : Int_table.t;
  lock : Mutex.t;
}

type state = t

let create ~weight =
  {
    weight = max 2 weight;
    pools = E.Per_thread.create (fun () -> Int_table.create 16);
    slots = Int_table.create 0;
    lock = Mutex.create ();
  }

let weight t = t.weight

let pool_add t ~addr ~w ~n =
  let slot = Lfrc_sched.Sched.slot () in
  Mutex.lock t.lock;
  Int_table.add (E.Per_thread.get t.pools slot) addr (pack w n);
  Mutex.unlock t.lock

let pool_try_share t ~addr =
  let slot = Lfrc_sched.Sched.slot () in
  Mutex.lock t.lock;
  let pool = E.Per_thread.get t.pools slot in
  let p = Int_table.find pool addr in
  let ok = pouch_w p > pouch_n p in
  if ok then Int_table.add pool addr 1;
  Mutex.unlock t.lock;
  ok

let pool_try_drop_shared t ~addr =
  let slot = Lfrc_sched.Sched.slot () in
  Mutex.lock t.lock;
  let pool = E.Per_thread.get t.pools slot in
  let ok = pouch_n (Int_table.find pool addr) > 1 in
  if ok then Int_table.add pool addr (-1);
  Mutex.unlock t.lock;
  ok

let pool_weight t ~addr =
  let slot = Lfrc_sched.Sched.slot () in
  Mutex.lock t.lock;
  let p = Int_table.find (E.Per_thread.get t.pools slot) addr in
  Mutex.unlock t.lock;
  if p = 0 then 1 else pouch_w p

let pool_remove t ~addr =
  let slot = Lfrc_sched.Sched.slot () in
  Mutex.lock t.lock;
  ignore (Int_table.take (E.Per_thread.get t.pools slot) addr);
  Mutex.unlock t.lock

let pool_give t ~addr ~w =
  let slot = Lfrc_sched.Sched.slot () in
  Mutex.lock t.lock;
  let pool = E.Per_thread.get t.pools slot in
  let ok = Int_table.mem pool addr in
  if ok then Int_table.add pool addr (pack w 0);
  Mutex.unlock t.lock;
  ok

let pool_take_for_transfer t ~addr =
  let slot = Lfrc_sched.Sched.slot () in
  Mutex.lock t.lock;
  let pool = E.Per_thread.get t.pools slot in
  let p = Int_table.find pool addr in
  let w =
    if p = 0 then 1
    else if pouch_n p = 1 then begin
      ignore (Int_table.take pool addr);
      pouch_w p
    end
    else begin
      (* Other covered refs keep their pooled weight; the transferred
         reference leaves with the minimum (w >= n keeps every remaining
         ref covered). *)
      Int_table.add pool addr (-(pack 1 1));
      1
    end
  in
  Mutex.unlock t.lock;
  w

let slot_take t ~cell =
  Mutex.lock t.lock;
  let w = 1 + Int_table.take t.slots (Cell.id cell) in
  Mutex.unlock t.lock;
  w

let slot_set t ~cell ~w =
  Mutex.lock t.lock;
  Int_table.set t.slots (Cell.id cell) (w - 1);
  Mutex.unlock t.lock

let slot_give t ~cell ~w =
  Mutex.lock t.lock;
  Int_table.add t.slots (Cell.id cell) w;
  Mutex.unlock t.lock

let slot_try_borrow t ~cell =
  let id = Cell.id cell in
  Mutex.lock t.lock;
  let ok = Int_table.find t.slots id >= 1 in
  if ok then Int_table.add t.slots id (-1);
  Mutex.unlock t.lock;
  ok

let pooled t =
  Mutex.lock t.lock;
  let addrs =
    Array.fold_left
      (fun acc pool -> Int_table.keys pool @ acc)
      [] (E.Per_thread.made t.pools)
  in
  Mutex.unlock t.lock;
  addrs

let adopt_pools t ~tids =
  let me = Lfrc_sched.Sched.tid () in
  let slot = Lfrc_sched.Sched.slot () in
  Mutex.lock t.lock;
  let mine = E.Per_thread.get t.pools slot in
  let merged = ref 0 in
  List.iter
    (fun tid ->
      if tid <> me then
        match E.Per_thread.of_tid t.pools tid with
        | Some pool ->
            for i = 0 to Int_table.length pool - 1 do
              Int_table.add mine (Int_table.key pool i) (Int_table.value pool i)
            done;
            merged := !merged + Int_table.length pool;
            Int_table.clear pool
        | None -> ())
    tids;
  Mutex.unlock t.lock;
  !merged

(* --- the delivery hooks --- *)

let rc_cell env p = Heap.rc_cell (E.heap env) p

let mode t = E.Wait_free { weight = t.weight }

(* The pointer read and the weight borrow are one atomic step — the
   simulator analogue of the single RMW a real implementation issues on
   the packed (pointer, weight) word; the slot still holds [a], so the
   borrowed unit provably covers a live reference. Disabled under
   [Software_mcas], whose cells can transiently hold descriptor words a
   raw peek must not trust. *)
let borrow t env ~src a =
  if
    Dcas.impl (E.dcas env) = Dcas.Software_mcas
    || not (slot_try_borrow t ~cell:src)
  then false
  else begin
    pool_add t ~addr:a ~w:1 ~n:1;
    Metrics.incr (E.metrics env) k_weight_borrow;
    E.record_lineage env ~addr:a Lineage.Wborrow;
    true
  end

(* Exhaustion fallback: the DCAS mints [weight + 1] while checking the
   slot still holds [a] — [weight] refills the slot, 1 covers the new
   reference. Its retries count as [lfrc.load_retry], so [lfrc.rc_retry]
   stays exactly 0 in this mode. *)
let load_mint t = t.weight + 1

let loaded t env ~src a ~old_rc =
  slot_give t ~cell:src ~w:t.weight;
  pool_add t ~addr:a ~w:1 ~n:1;
  Metrics.incr (E.metrics env) k_weight_exhaust;
  E.record_lineage_rc env ~addr:a ~old_rc ~delta:(t.weight + 1)

(* Mint a whole batch with one fetch-add; the registry entry carries the
   batch size so a crash before the CAS resolves is compensated
   weight-exactly by recovery. *)
let publish t env p =
  let prev = Dcas.fetch_add (E.dcas env) (rc_cell env p) t.weight in
  (* Atomic with the add: the speculative batch is never unanchored. *)
  E.begin_publish env ~weight:t.weight p;
  Metrics.incr (E.metrics env) k_weight_pub;
  E.record_lineage_rc env ~addr:p ~old_rc:prev ~delta:t.weight

(* Cover the new reference from the thread's pooled weight when the pouch
   has spare units (no shared-memory traffic at all); refill the pouch
   with a whole fetch-add batch otherwise. Either way, no compare loop
   and no publication: the pouch entry anchors the batch. *)
let acquire_copy t env w =
  if w <> Heap.null then begin
    if pool_try_share t ~addr:w then begin
      Metrics.incr (E.metrics env) k_weight_share;
      E.record_lineage env ~addr:w Lineage.Wshare
    end
    else begin
      let prev = Dcas.fetch_add (E.dcas env) (rc_cell env w) t.weight in
      (* Atomic with the add: pouch the batch before any yield. *)
      pool_add t ~addr:w ~w:t.weight ~n:1;
      Metrics.incr (E.metrics env) k_weight_refill;
      E.record_lineage_rc env ~addr:w ~old_rc:prev ~delta:t.weight
    end
  end;
  false

(* Rides the winning CAS's atomic step: the new pointer's carried weight
   (the published batch, or whatever the owned reference carried) becomes
   the slot's, and the displaced pointer's slot weight moves to the pouch
   for its drop. Claiming old-first keeps the ledger right when the CAS
   reinstalls the same pointer. *)
let installed t _ ~cell ~old v ~owned =
  let w =
    if v = Heap.null then 0
    else if owned then pool_take_for_transfer t ~addr:v
    else t.weight
  in
  let ws = slot_take t ~cell in
  if old <> Heap.null then pool_add t ~addr:old ~w:ws ~n:1;
  if v <> Heap.null then slot_set t ~cell ~w

(* Return an unspent publication batch after a failed CAS. Preferred:
   merge it into the thread's pouch entry for [p] (the caller's local
   still covers it). With no entry to absorb into, pouch it as a phantom
   reference for the caller to drop — which also handles the case where
   the publication was the last thing keeping [p] alive. *)
let retract t _ p =
  if p = Heap.null || pool_give t ~addr:p ~w:t.weight then true
  else begin
    pool_add t ~addr:p ~w:t.weight ~n:1;
    false
  end

let drop _ env p =
  E.begin_destroy env p;
  true

(* Fast path: the ref was pool-covered alongside others — uncover it,
   weight stays pooled, no heap traffic. Slow path: flush the ref's whole
   carried weight with one fetch-add. Zero-detect is exact: only the add
   that returns prev = w observed every other carrier's weight already
   gone. *)
let release t env p =
  if pool_try_drop_shared t ~addr:p then begin
    Metrics.incr (E.metrics env) k_weight_absorb;
    E.end_destroy env p;
    false
  end
  else begin
    let w = pool_weight t ~addr:p in
    let prev = Dcas.fetch_add (E.dcas env) (rc_cell env p) (-w) in
    (* No yield since the add landed: removing the pouch entry is atomic
       with it, so a crashed thread can never double-spend its weight
       (a crash at the add's own yield point means nothing happened and
       the pouch is intact). *)
    pool_remove t ~addr:p;
    Metrics.incr (E.metrics env) k_weight_release;
    E.record_lineage_rc env ~addr:p ~old_rc:prev ~delta:(-w);
    let died = prev = w in
    if died then Lfrc_sanitize.Shadow.note_dying (E.sanitizer env) p
    else E.end_destroy env p;
    died
  end

(* A claimed child converts its slot weight into a pouch entry in the
   same atomic step, so the weight ledger never dangles. *)
let claim t _ ~cell child = pool_add t ~addr:child ~w:(slot_take t ~cell) ~n:1

let nested_drop_span = false

(* Recursion depth is an eager-mode concern; the weighted teardown is
   always the explicit work list. *)
let recursive_teardown = false

let flush _ _ = 0

(* Merge the dead threads' pouches into the adopter's before any adoption
   destroy runs, so each orphaned reference released below finds its
   pooled weight and the ledger balances exactly as in a live release. *)
let adopt t env ~crashed =
  let n = adopt_pools t ~tids:crashed in
  if n > 0 then Metrics.add (E.metrics env) k_adopt_weight n;
  n

(* The registry entry carries the whole published batch; pouching it
   makes the compensating destroy return exactly what the fetch-add
   minted. *)
let adopt_publication t _ p ~weight = pool_add t ~addr:p ~w:weight ~n:1
let anchors = pooled
