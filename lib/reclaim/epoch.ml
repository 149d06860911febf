module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Sched = Lfrc_sched.Sched
module Metrics = Lfrc_obs.Metrics
module Lineage = Lfrc_obs.Lineage

let k_advances = Metrics.key "epoch.advances"
let k_freed = Metrics.key "epoch.freed"
let k_limbo_depth = Metrics.key "epoch.limbo_depth"
let k_retires = Metrics.key "epoch.retires"
let k_epoch_evict = Metrics.key "lfrc.epoch_evict"

type slot_state = {
  active : Cell.t; (* 0 = quiescent, 1 = pinned *)
  epoch : Cell.t; (* epoch observed at pin *)
  mutable limbo : (int * Heap.ptr) list; (* (retire epoch, object) *)
  mutable limbo_len : int;
  mutable retire_count : int;
  mutable in_use : bool;
  mutable owner : int; (* simulated tid that registered; -1 when free *)
}

type t = {
  heap : Heap.t;
  global : Cell.t;
  slots : slot_state array;
  advance_every : int;
  lock : Mutex.t;
  mutable orphans : (int * Heap.ptr) list;
  freed : int Atomic.t;
  max_limbo : int Atomic.t;
  metrics : Metrics.t;
  lineage : Lineage.t;
}

type slot = int

let create ?(slots = 64) ?(advance_every = 16) ?(metrics = Metrics.disabled)
    ?(lineage = Lineage.disabled) heap =
  {
    heap;
    global = Cell.make 2; (* start at 2 so epoch-2 is never negative *)
    slots =
      Array.init slots (fun _ ->
          {
            active = Cell.make 0;
            epoch = Cell.make 0;
            limbo = [];
            limbo_len = 0;
            retire_count = 0;
            in_use = false;
            owner = -1;
          });
    advance_every;
    lock = Mutex.create ();
    orphans = [];
    freed = Atomic.make 0;
    max_limbo = Atomic.make 0;
    metrics;
    lineage;
  }

let register t =
  Mutex.lock t.lock;
  let rec find i =
    if i >= Array.length t.slots then begin
      Mutex.unlock t.lock;
      failwith "Epoch.register: no free slot"
    end
    else if not t.slots.(i).in_use then begin
      t.slots.(i).in_use <- true;
      t.slots.(i).owner <- Sched.tid ();
      Mutex.unlock t.lock;
      i
    end
    else find (i + 1)
  in
  find 0

let pin t s =
  let sl = t.slots.(s) in
  Sched.point ();
  let e = Cell.get t.global in
  Cell.set sl.epoch e;
  Sched.point ();
  Cell.set sl.active 1

let unpin t s =
  Sched.point ();
  Cell.set t.slots.(s).active 0

let try_advance t =
  Sched.point ();
  let e = Cell.get t.global in
  let ok =
    Array.for_all
      (fun sl ->
        (not sl.in_use)
        ||
        (Sched.point ();
         Cell.get sl.active = 0 || Cell.get sl.epoch = e))
      t.slots
  in
  let advanced = ok && Cell.cas t.global e (e + 1) in
  if advanced then Metrics.incr t.metrics k_advances;
  advanced

(* Free this slot's limbo objects retired at least two epochs ago. *)
let reap t s =
  let sl = t.slots.(s) in
  Sched.point ();
  let safe_before = Cell.get t.global - 1 in
  let keep = ref [] and kept = ref 0 in
  List.iter
    (fun (g, p) ->
      if g < safe_before then begin
        Heap.free t.heap p;
        Atomic.incr t.freed;
        Metrics.incr t.metrics k_freed
      end
      else begin
        keep := (g, p) :: !keep;
        incr kept
      end)
    sl.limbo;
  sl.limbo <- !keep;
  sl.limbo_len <- !kept;
  Metrics.set_gauge t.metrics k_limbo_depth !kept

let bump_max t n =
  let rec go () =
    let m = Atomic.get t.max_limbo in
    if n > m && not (Atomic.compare_and_set t.max_limbo m n) then go ()
  in
  go ()

let retire t s p =
  let sl = t.slots.(s) in
  Sched.point ();
  let e = Cell.get t.global in
  sl.limbo <- (e, p) :: sl.limbo;
  sl.limbo_len <- sl.limbo_len + 1;
  bump_max t sl.limbo_len;
  Metrics.incr t.metrics k_retires;
  Lineage.record t.lineage ~addr:p Lineage.Retire;
  Metrics.set_gauge t.metrics k_limbo_depth sl.limbo_len;
  sl.retire_count <- sl.retire_count + 1;
  if sl.retire_count mod t.advance_every = 0 then ignore (try_advance t);
  reap t s

let unregister t s =
  let sl = t.slots.(s) in
  Cell.set sl.active 0;
  reap t s;
  Mutex.lock t.lock;
  t.orphans <- sl.limbo @ t.orphans;
  sl.limbo <- [];
  sl.limbo_len <- 0;
  sl.in_use <- false;
  sl.owner <- -1;
  Mutex.unlock t.lock

let flush t =
  for _ = 0 to 3 do
    ignore (try_advance t)
  done;
  for i = 0 to Array.length t.slots - 1 do
    if t.slots.(i).in_use then reap t i
  done;
  Mutex.lock t.lock;
  let orphans = t.orphans in
  t.orphans <- [];
  Mutex.unlock t.lock;
  let safe_before = Cell.get t.global - 1 in
  List.iter
    (fun (g, p) ->
      if g < safe_before then begin
        Heap.free t.heap p;
        Atomic.incr t.freed;
        Metrics.incr t.metrics k_freed
      end
      else begin
        Mutex.lock t.lock;
        t.orphans <- (g, p) :: t.orphans;
        Mutex.unlock t.lock
      end)
    orphans

(* Evict the slots of crashed threads: a dead thread pinned in an old
   epoch blocks [try_advance] forever, stalling reclamation for everyone —
   the exact "halted thread impedes the others" failure reference counting
   is supposed to rule out. A crashed thread cannot be mid-read (crashes
   land at scheduler yield points, and a structure holds no protected
   pointer across one), so clearing its active flag is safe; its limbo
   objects are orphaned and reclaimed by the flush. Returns the number of
   slots evicted. *)
let adopt t ~crashed =
  let evicted = ref 0 in
  Mutex.lock t.lock;
  Array.iter
    (fun sl ->
      if sl.in_use && List.mem sl.owner crashed then begin
        Cell.set sl.active 0;
        t.orphans <- sl.limbo @ t.orphans;
        sl.limbo <- [];
        sl.limbo_len <- 0;
        sl.in_use <- false;
        sl.owner <- -1;
        incr evicted;
        Metrics.incr t.metrics k_epoch_evict
      end)
    t.slots;
  Mutex.unlock t.lock;
  if !evicted > 0 then flush t;
  !evicted

type stats = { freed : int; max_limbo : int; epoch : int }

let stats (t : t) : stats =
  {
    freed = Atomic.get t.freed;
    max_limbo = Atomic.get t.max_limbo;
    epoch = Cell.get t.global;
  }
