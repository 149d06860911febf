module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Sched = Lfrc_sched.Sched
module Metrics = Lfrc_obs.Metrics
module Lineage = Lfrc_obs.Lineage

let k_scans = Metrics.key "hazard.scans"
let k_freed = Metrics.key "hazard.freed"
let k_retires = Metrics.key "hazard.retires"
let k_retired_depth = Metrics.key "hazard.retired_depth"
let k_hazard_evict = Metrics.key "lfrc.hazard_evict"

type slot_state = {
  hazards : Cell.t array;
  mutable retired : Heap.ptr list;
  mutable retired_len : int;
  mutable in_use : bool;
  mutable owner : int; (* simulated tid that registered; -1 when free *)
}

type t = {
  heap : Heap.t;
  slots : slot_state array;
  scan_threshold : int;
  lock : Mutex.t; (* slot registry and orphan list *)
  mutable orphans : Heap.ptr list;
  freed : int Atomic.t;
  max_retired : int Atomic.t;
  metrics : Metrics.t;
  lineage : Lineage.t;
}

type slot = int

(* Hazards per thread slot, Michael's two; [protect]'s [idx] ranges over
   them. *)
let hazards_per_slot = 2

let create ?(slots = 64) ?(scan_threshold = 64) ?(metrics = Metrics.disabled)
    ?(lineage = Lineage.disabled) heap =
  {
    heap;
    slots =
      Array.init slots (fun _ ->
          {
            hazards = Array.init hazards_per_slot (fun _ -> Cell.make 0);
            retired = [];
            retired_len = 0;
            in_use = false;
            owner = -1;
          });
    scan_threshold;
    lock = Mutex.create ();
    orphans = [];
    freed = Atomic.make 0;
    max_retired = Atomic.make 0;
    metrics;
    lineage;
  }

let register t =
  Mutex.lock t.lock;
  let rec find i =
    if i >= Array.length t.slots then begin
      Mutex.unlock t.lock;
      failwith "Hazard.register: no free slot"
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

let protect t s ~idx cell =
  let haz = t.slots.(s).hazards.(idx) in
  let rec go () =
    Sched.point ();
    let p = Cell.get cell in
    Sched.point ();
    Cell.set haz p;
    Sched.point ();
    if Cell.get cell = p then p else go ()
  in
  go ()

let clear t s =
  Array.iter
    (fun haz ->
      Sched.point ();
      Cell.set haz 0)
    t.slots.(s).hazards

(* Scan: free every retired object no hazard protects. *)
let scan t s =
  Metrics.incr t.metrics k_scans;
  let protected_set = Hashtbl.create 64 in
  Array.iter
    (fun sl ->
      if sl.in_use then
        Array.iter
          (fun haz ->
            Sched.point ();
            let p = Cell.get haz in
            if p <> Heap.null then Hashtbl.replace protected_set p ())
          sl.hazards)
    t.slots;
  Mutex.lock t.lock;
  let adopted = t.orphans in
  t.orphans <- [];
  Mutex.unlock t.lock;
  let sl = t.slots.(s) in
  let keep = ref [] and kept = ref 0 in
  List.iter
    (fun p ->
      if Hashtbl.mem protected_set p then begin
        keep := p :: !keep;
        incr kept
      end
      else begin
        Heap.free t.heap p;
        Atomic.incr t.freed;
        Metrics.incr t.metrics k_freed
      end)
    (sl.retired @ adopted);
  sl.retired <- !keep;
  sl.retired_len <- !kept

let bump_max t n =
  let rec go () =
    let m = Atomic.get t.max_retired in
    if n > m && not (Atomic.compare_and_set t.max_retired m n) then go ()
  in
  go ()

let retire t s p =
  let sl = t.slots.(s) in
  sl.retired <- p :: sl.retired;
  sl.retired_len <- sl.retired_len + 1;
  bump_max t sl.retired_len;
  Metrics.incr t.metrics k_retires;
  Lineage.record t.lineage ~addr:p Lineage.Retire;
  Metrics.set_gauge t.metrics k_retired_depth sl.retired_len;
  if sl.retired_len >= t.scan_threshold then scan t s

let unregister t s =
  clear t s;
  scan t s;
  let sl = t.slots.(s) in
  Mutex.lock t.lock;
  (* Whatever is still protected by others becomes orphaned garbage,
     adopted by the next scan. *)
  t.orphans <- sl.retired @ t.orphans;
  sl.retired <- [];
  sl.retired_len <- 0;
  sl.in_use <- false;
  sl.owner <- -1;
  Mutex.unlock t.lock

(* Evict the slots of crashed threads: a dead thread's published hazards
   protect nothing it will ever dereference again (crashes land at yield
   points), yet they keep every matching retired object unreclaimable and
   its own retired list is never scanned again. Clear the hazards, orphan
   the retired objects and rescan. Returns the number of slots evicted. *)
let adopt t ~crashed =
  let evicted = ref 0 in
  let rescan = ref (-1) in
  Mutex.lock t.lock;
  Array.iteri
    (fun i sl ->
      if sl.in_use && List.mem sl.owner crashed then begin
        Array.iter (fun haz -> Cell.set haz 0) sl.hazards;
        t.orphans <- sl.retired @ t.orphans;
        sl.retired <- [];
        sl.retired_len <- 0;
        sl.in_use <- false;
        sl.owner <- -1;
        incr evicted;
        rescan := i;
        Metrics.incr t.metrics k_hazard_evict
      end)
    t.slots;
  Mutex.unlock t.lock;
  (* Scan through a now-free slot so the orphans are reconsidered with the
     dead threads' hazards gone. *)
  if !evicted > 0 then scan t !rescan;
  !evicted

type stats = { freed : int; max_retired : int }

let stats (t : t) : stats =
  { freed = Atomic.get t.freed; max_retired = Atomic.get t.max_retired }
