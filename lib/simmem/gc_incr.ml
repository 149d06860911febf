type phase = Idle | Marking | Sweeping

type t = {
  gc_heap : Heap.t;
  threshold : int;
  mutable gc_phase : phase;
  gray : Heap.ptr Stack.t;
  mutable sweep_cursor : Heap.ptr; (* next id to examine *)
  mutable sweep_limit : Heap.ptr; (* ids above this were born during the cycle *)
  mutable cycles : int;
  mutable freed : int;
  mutable max_live_marked : int;
  mutable epoch : int; (* versioned-mark stamp of the current cycle *)
}

(* Objects one budget unit examines while sweeping. *)
let sweep_chunk = 4

let create ?(threshold = 1024) heap =
  {
    gc_heap = heap;
    threshold;
    gc_phase = Idle;
    gray = Stack.create ();
    sweep_cursor = 1;
    sweep_limit = 0;
    cycles = 0;
    freed = 0;
    max_live_marked = 0;
    epoch = 0;
  }

let heap t = t.gc_heap
let phase t = t.gc_phase

(* Shade: mark (black-or-gray) and queue for scanning. Marked objects are
   never re-queued, so marking terminates. *)
let marked t p = Heap.get_mark_version t.gc_heap p = t.epoch

let shade t p =
  if p <> Heap.null && Heap.is_live t.gc_heap p && not (marked t p) then begin
    Heap.set_mark_version t.gc_heap p t.epoch;
    Stack.push p t.gray
  end

let shade_roots t =
  List.iter (fun root -> shade t (Cell.get root)) (Heap.roots t.gc_heap);
  Heap.iter_frame_roots t.gc_heap (fun p -> shade t p)

let start_cycle t =
  if t.gc_phase = Idle then begin
    (* Versioned marks: bumping the epoch unmarks everything in O(1). *)
    t.epoch <- t.epoch + 1;
    Stack.clear t.gray;
    t.gc_phase <- Marking;
    shade_roots t;
    t.cycles <- t.cycles + 1
  end

let barrier t overwritten =
  if t.gc_phase = Marking then shade t overwritten

let on_alloc t p =
  (* Born black: new objects are never swept by the running cycle. *)
  if t.gc_phase <> Idle then Heap.set_mark_version t.gc_heap p t.epoch

(* Scan one gray object: shade its pointer slots. *)
let scan_one t =
  match Stack.pop_opt t.gray with
  | None -> false
  | Some p ->
      if Heap.is_live t.gc_heap p then
        List.iter (shade t) (Heap.ptr_slot_values t.gc_heap p);
      true

let begin_sweep t =
  t.gc_phase <- Sweeping;
  (* Objects allocated from here on are marked at birth; the cursor walks
     the id space known at this instant. O(1): no heap scan. *)
  t.sweep_cursor <- 1;
  t.sweep_limit <- Heap.high_water_id t.gc_heap;
  let live = Heap.live_count t.gc_heap in
  if live > t.max_live_marked then t.max_live_marked <- live

let sweep_some t =
  let examined = ref 0 in
  while !examined < sweep_chunk && t.sweep_cursor <= t.sweep_limit do
    let p = t.sweep_cursor in
    t.sweep_cursor <- p + 1;
    incr examined;
    if Heap.is_live t.gc_heap p && not (marked t p) then begin
      Heap.free t.gc_heap p;
      t.freed <- t.freed + 1
    end
  done;
  t.sweep_cursor > t.sweep_limit

let step t ~budget =
  if t.gc_phase = Idle then false
  else begin
    let finished = ref false in
    let units = ref 0 in
    while (not !finished) && !units < budget do
      incr units;
      match t.gc_phase with
      | Idle -> finished := true
      | Marking ->
          if not (scan_one t) then begin
            (* Gray set drained: re-scan the roots (locals move during the
               cycle); only when that uncovers nothing new is marking
               done. *)
            shade_roots t;
            if Stack.is_empty t.gray then begin
              begin_sweep t;
              ignore (sweep_some t)
            end
          end
      | Sweeping ->
          if sweep_some t then begin
            t.gc_phase <- Idle;
            finished := true
          end
    done;
    !finished
  end

let poll t ~budget =
  if t.gc_phase = Idle && Heap.live_count t.gc_heap > t.threshold then
    start_cycle t;
  if t.gc_phase <> Idle then ignore (step t ~budget)

let finish_cycle t =
  while t.gc_phase <> Idle do
    ignore (step t ~budget:max_int)
  done

type stats = { cycles : int; freed : int; max_live_marked : int }

let stats (t : t) : stats =
  { cycles = t.cycles; freed = t.freed; max_live_marked = t.max_live_marked }
