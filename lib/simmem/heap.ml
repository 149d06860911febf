type ptr = int

exception Use_after_free of { id : int; gen : int; op : string }
exception Double_free of { id : int }
exception Invalid_pointer of { value : int; op : string }
exception Simulated_oom

let null = 0

type obj = {
  id : int;
  mutable obj_layout : Layout.t;
  mutable live : bool;
  mutable gen : int;
  mutable mark : bool;
  mutable mark_v : int;
  mutable cells : Cell.t array; (* sized for the largest layout this id has carried *)
}

type frame = int

type t = {
  heap_name : string;
  lock : Mutex.t;
  objs : obj array Atomic.t; (* index id-1; grown under lock *)
  n_objs : int Atomic.t;
  free_by_shape : (int, int list ref) Hashtbl.t; (* keyed by [shape] *)
  mutable root_cells : Cell.t list;
  mutable frames : (frame * (unit -> ptr list)) list;
  mutable frame_ctr : int;
  allocs : int Atomic.t;
  frees : int Atomic.t;
  live : int Atomic.t;
  peak : int Atomic.t;
  live_cells : int Atomic.t;
  mutable alloc_hook : (unit -> bool) option;
  mutable observer : (obs_event -> unit) option;
}

and obs_event =
  | Obs_alloc of { p : ptr; gen : int; live : int }
  | Obs_free of { p : ptr; gen : int; live : int }

let create ?(name = "heap") () =
  {
    heap_name = name;
    lock = Mutex.create ();
    objs = Atomic.make [||];
    n_objs = Atomic.make 0;
    free_by_shape = Hashtbl.create 16;
    root_cells = [];
    frames = [];
    frame_ctr = 0;
    allocs = Atomic.make 0;
    frees = Atomic.make 0;
    live = Atomic.make 0;
    peak = Atomic.make 0;
    live_cells = Atomic.make 0;
    alloc_hook = None;
    observer = None;
  }

let name t = t.heap_name

let set_alloc_hook t h = t.alloc_hook <- h

let set_observer t f = t.observer <- f

let get_obj t p op =
  if p <= 0 || p > Atomic.get t.n_objs then
    raise (Invalid_pointer { value = p; op });
  (Atomic.get t.objs).(p - 1)

let live_obj t p op =
  let o = get_obj t p op in
  if not o.live then
    raise (Use_after_free { id = o.id; gen = o.gen; op });
  o

let is_live t p =
  if p <= 0 || p > Atomic.get t.n_objs then false
  else (Atomic.get t.objs).(p - 1).live

let layout t p = (live_obj t p "layout").obj_layout
let generation t p = (get_obj t p "generation").gen

(* One int per (pointer slots, value slots) pair — the Cantor pairing,
   injective on non-negative counts — so a free-list lookup hashes an int
   and builds no tuple. *)
let shape (l : Layout.t) =
  let s = l.Layout.n_ptrs + l.Layout.n_vals in
  (s * (s + 1) / 2) + l.Layout.n_vals

let init_cells o (l : Layout.t) =
  let n = Layout.n_cells l in
  if Array.length o.cells < n then begin
    let bigger =
      Array.init n (fun i ->
          if i < Array.length o.cells then o.cells.(i)
          else Cell.make ~frozen:true 0)
    in
    o.cells <- bigger
  end;
  (* rc = 1 for the reference returned by alloc; pointers null; values 0 *)
  Cell.thaw o.cells.(0) 1;
  for i = 1 to n - 1 do
    Cell.thaw o.cells.(i) 0
  done

let rec bump_peak t l =
  let p = Atomic.get t.peak in
  if l > p && not (Atomic.compare_and_set t.peak p l) then bump_peak t l

let alloc t l =
  (* Consulted before any mutation: a simulated OOM leaves the heap exactly
     as it was, so callers can degrade gracefully. *)
  (match t.alloc_hook with
  | Some f when f () -> raise Simulated_oom
  | _ -> ());
  Mutex.lock t.lock;
  let o =
    match Hashtbl.find t.free_by_shape (shape l) with
    | { contents = id :: rest } as free_ids ->
        free_ids := rest;
        let o = (Atomic.get t.objs).(id - 1) in
        o.gen <- o.gen + 1;
        o.obj_layout <- l;
        o
    | { contents = [] } | exception Not_found ->
        let id = Atomic.get t.n_objs + 1 in
        let o =
          {
            id;
            obj_layout = l;
            live = false;
            gen = 1;
            mark = false;
            mark_v = 0;
            cells = [||];
          }
        in
        let arr = Atomic.get t.objs in
        if id > Array.length arr then begin
          let bigger = Array.make (max 64 (2 * Array.length arr)) o in
          Array.blit arr 0 bigger 0 (Array.length arr);
          Atomic.set t.objs bigger
        end;
        (Atomic.get t.objs).(id - 1) <- o;
        Atomic.set t.n_objs id;
        o
  in
  init_cells o l;
  o.live <- true;
  o.mark <- false;
  Atomic.incr t.allocs;
  Atomic.incr t.live;
  ignore (Atomic.fetch_and_add t.live_cells (Layout.n_cells l));
  bump_peak t (Atomic.get t.live);
  let live_now = Atomic.get t.live in
  Mutex.unlock t.lock;
  (* Observers run outside the heap lock (they may read heap state). *)
  (match t.observer with
  | Some f -> f (Obs_alloc { p = o.id; gen = o.gen; live = live_now })
  | None -> ());
  o.id

let free t p =
  let o = get_obj t p "free" in
  Mutex.lock t.lock;
  if not o.live then begin
    Mutex.unlock t.lock;
    raise (Double_free { id = o.id })
  end;
  o.live <- false;
  for i = 0 to Layout.n_cells o.obj_layout - 1 do
    Cell.freeze o.cells.(i)
  done;
  let key = shape o.obj_layout in
  (match Hashtbl.find t.free_by_shape key with
  | ids -> ids := o.id :: !ids
  | exception Not_found -> Hashtbl.add t.free_by_shape key (ref [ o.id ]));
  Atomic.incr t.frees;
  Atomic.decr t.live;
  ignore (Atomic.fetch_and_add t.live_cells (-Layout.n_cells o.obj_layout));
  let live_now = Atomic.get t.live in
  Mutex.unlock t.lock;
  match t.observer with
  | Some f -> f (Obs_free { p; gen = o.gen; live = live_now })
  | None -> ()

let rc_cell t p =
  let o = get_obj t p "rc_cell" in
  o.cells.(Layout.rc_slot)

let ptr_cell t p i =
  let o = live_obj t p "ptr_cell" in
  o.cells.(Layout.ptr_slot o.obj_layout i)

let val_cell t p i =
  let o = live_obj t p "val_cell" in
  o.cells.(Layout.val_slot o.obj_layout i)

let n_ptr_slots t p = (live_obj t p "n_ptr_slots").obj_layout.Layout.n_ptrs

(* No liveness check: shadow-memory observers classify a dead object's
   cells too (that is how they catch reads through stale cell handles). *)
let iter_cells t p f =
  let o = get_obj t p "iter_cells" in
  let l = o.obj_layout in
  f ~kind:`Rc ~index:0 o.cells.(Layout.rc_slot);
  for i = 0 to l.Layout.n_ptrs - 1 do
    f ~kind:`Ptr ~index:i o.cells.(Layout.ptr_slot l i)
  done;
  for i = 0 to l.Layout.n_vals - 1 do
    f ~kind:`Val ~index:i o.cells.(Layout.val_slot l i)
  done

(* Roots *)

let root t ?name () =
  ignore name;
  let c = Cell.make 0 in
  Mutex.lock t.lock;
  t.root_cells <- c :: t.root_cells;
  Mutex.unlock t.lock;
  c

let release_root t c =
  Mutex.lock t.lock;
  t.root_cells <- List.filter (fun c' -> Cell.id c' <> Cell.id c) t.root_cells;
  Mutex.unlock t.lock

let roots t = t.root_cells

(* Frames *)

let register_frame t f =
  Mutex.lock t.lock;
  t.frame_ctr <- t.frame_ctr + 1;
  let id = t.frame_ctr in
  t.frames <- (id, f) :: t.frames;
  Mutex.unlock t.lock;
  id

let unregister_frame t id =
  Mutex.lock t.lock;
  t.frames <- List.filter (fun (i, _) -> i <> id) t.frames;
  Mutex.unlock t.lock

let iter_frame_roots t f =
  List.iter (fun (_, g) -> List.iter f (g ())) t.frames

(* Marks *)

let set_mark t p m = (get_obj t p "set_mark").mark <- m
let get_mark t p = (get_obj t p "get_mark").mark

let set_mark_version t p v = (get_obj t p "set_mark_version").mark_v <- v
let get_mark_version t p = (get_obj t p "get_mark_version").mark_v

let high_water_id (t : t) = Atomic.get t.n_objs

(* Iteration and stats *)

let iter_live t f =
  let n = Atomic.get t.n_objs in
  let arr = Atomic.get t.objs in
  for i = 0 to n - 1 do
    if arr.(i).live then f arr.(i).id
  done

let ptr_slot_values t p =
  let o = live_obj t p "ptr_slot_values" in
  let l = o.obj_layout in
  List.init l.Layout.n_ptrs (fun i ->
      Cell.get o.cells.(Layout.ptr_slot l i))

type stats = {
  allocs : int;
  frees : int;
  live : int;
  peak_live : int;
  live_cells : int;
}

let stats (t : t) : stats =
  {
    allocs = Atomic.get t.allocs;
    frees = Atomic.get t.frees;
    live = Atomic.get t.live;
    peak_live = Atomic.get t.peak;
    live_cells = Atomic.get t.live_cells;
  }

let live_count (t : t) = Atomic.get t.live

