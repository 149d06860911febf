module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module Metrics = Lfrc_obs.Metrics

let k_freelist_len = Metrics.key "valois.freelist_len"
let k_recycled = Metrics.key "valois.recycled"

let name = "treiber-valois"

let null = Heap.null
let node_layout = Lfrc_structures.Treiber.node_layout

type t = {
  env : Lfrc_core.Env.t;
  heap : Heap.t;
  top : Cell.t;
  flist_lock : Mutex.t;
  mutable flist : Heap.ptr list; (* rc-0 nodes, never returned to the heap *)
  mutable flist_len : int;
  recycled : int Atomic.t;
}

type handle = t

let create env =
  let heap = Lfrc_core.Env.heap env in
  {
    env;
    heap;
    top = Heap.root heap ~name:"valois-top" ();
    flist_lock = Mutex.create ();
    flist = [];
    flist_len = 0;
    recycled = Atomic.make 0;
  }

let register t = t
let unregister _ = ()

let d t = Lfrc_core.Env.dcas t.env

let add_to_rc t p v =
  let rc = Heap.rc_cell t.heap p in
  let rec go () =
    let oldrc = Dcas.read (d t) rc in
    if Dcas.cas (d t) rc oldrc (oldrc + v) then oldrc else go ()
  in
  go ()

let park t p =
  Mutex.lock t.flist_lock;
  t.flist <- p :: t.flist;
  t.flist_len <- t.flist_len + 1;
  let len = t.flist_len in
  Mutex.unlock t.flist_lock;
  Metrics.set_gauge (Lfrc_core.Env.metrics t.env) k_freelist_len len

(* Release one count; a node dying releases its next pointer in turn and
   parks on the free-list (never Heap.free: type-stable memory). *)
let release t p =
  let rec go p =
    if p <> null && add_to_rc t p (-1) = 1 then begin
      let nx = Dcas.read (d t) (Heap.ptr_cell t.heap p 0) in
      Dcas.write (d t) (Heap.ptr_cell t.heap p 0) null;
      park t p;
      go nx
    end
  in
  go p

(* Valois's SafeRead: count first, then validate the pointer still exists.
   The count may transiently land on a node that was freed to the
   free-list — harmless because the memory is still a node, and the
   failed validation compensates.

   The compensation must NOT perform death detection: the stray increment
   may have landed on a node already parked on the free-list, and a
   compensating "release to zero" would park it a second time, corrupting
   the list (observed as a livelock before this was changed). Valois's
   full algorithm closes this with claim bits; we take the safe
   approximation — a failed-validation decrement never reclaims, at the
   cost of rarely leaking a node whose true last reference died in the
   race window. DESIGN.md records the deviation. *)
let safe_read t cell =
  let rec go () =
    let p = Dcas.read (d t) cell in
    if p = null then null
    else begin
      ignore (add_to_rc t p 1);
      if Dcas.read (d t) cell = p then p
      else begin
        ignore (add_to_rc t p (-1));
        go ()
      end
    end
  in
  go ()

let alloc_node t =
  Mutex.lock t.flist_lock;
  let reused =
    match t.flist with
    | p :: rest ->
        t.flist <- rest;
        t.flist_len <- t.flist_len - 1;
        Atomic.incr t.recycled;
        Some p
    | [] -> None
  in
  let len = t.flist_len in
  Mutex.unlock t.flist_lock;
  match reused with
  | Some p ->
      let m = Lfrc_core.Env.metrics t.env in
      Metrics.incr m k_recycled;
      Metrics.set_gauge m k_freelist_len len;
      ignore (add_to_rc t p 1);
      Dcas.write (d t) (Heap.ptr_cell t.heap p 0) null;
      Dcas.write (d t) (Heap.val_cell t.heap p 0) 0;
      p
  | None -> Heap.alloc t.heap node_layout

let push t v =
  let n = alloc_node t in
  Dcas.write (d t) (Heap.val_cell t.heap n 0) v;
  let rec loop () =
    let top = safe_read t t.top in
    Dcas.write (d t) (Heap.ptr_cell t.heap n 0) top;
    if Dcas.cas (d t) t.top top n then begin
      (* our SafeRead count now backs n->next; the count that backed
         top's old reference is surplus *)
      if top <> null then release t top
    end
    else begin
      if top <> null then release t top;
      loop ()
    end
  in
  loop ();
  (* transfer our allocation count to the stack's reference *)
  ()

(* [alloc_node] either recycles (infallible) or allocates as its last
   step, so a simulated OOM backs out before the stack is touched. *)
let try_push t v =
  match push t v with
  | () -> Ok ()
  | exception Heap.Simulated_oom -> Error `Out_of_memory

let pop t =
  let rec loop () =
    let top = safe_read t t.top in
    if top = null then None
    else begin
      let nx = Dcas.read (d t) (Heap.ptr_cell t.heap top 0) in
      (* conservative increment before publication, as in LFRCCAS *)
      if nx <> null then ignore (add_to_rc t nx 1);
      if Dcas.cas (d t) t.top top nx then begin
        let v = Dcas.read (d t) (Heap.val_cell t.heap top 0) in
        release t top (* the stack's relinquished reference *);
        release t top (* our SafeRead reference *);
        Some v
      end
      else begin
        if nx <> null then release t nx;
        release t top;
        loop ()
      end
    end
  in
  loop ()

let destroy t =
  let rec drain () = if pop t <> None then drain () in
  drain ();
  Heap.release_root t.heap t.top

include Lfrc_structures.Container_intf.With_env (struct
  let name = name

  type nonrec t = t
  type nonrec handle = handle

  let create = create
  let register = register
  let unregister = unregister
  let destroy = destroy
end)

type counters = { freelist_len : int; recycled : int }

let counters t = { freelist_len = t.flist_len; recycled = Atomic.get t.recycled }
