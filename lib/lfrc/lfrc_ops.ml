module Heap = Lfrc_simmem.Heap

let name = "lfrc"

type local = Heap.ptr ref

(* Locals hold counted references, so LFRC itself never needs them
   published. The registration with {!Env} (not with the heap — heap
   frames would change what the tracing collectors and invariant checkers
   see) exists for the fault auditor: when a simulated thread crashes, its
   registered locals are the "lost references" that account for any
   objects it leaks. A context's locals are an array stack, newest on
   top: declaring and retiring one allocates nothing but the local.
   Structures often retire an older local before a newer one, so a
   retire leaves [vacant] in place instead of shifting the newer locals
   down (each shift would be a write barrier), and vacant entries leave
   from the top. *)
type locals = { mutable items : local array; mutable len : int }

type ctx = { ctx_env : Env.t; locals : locals; frame : Env.local_frame }

(* Marks retired and unused entries. Never handed out or written
   through. *)
let vacant : local = ref Heap.null

(* The locals' pointers, newest first; [take] also nulls each local. *)
let pointers ls ~take =
  let acc = ref [] in
  for i = 0 to ls.len - 1 do
    let l = ls.items.(i) in
    if l != vacant then begin
      acc := !l :: !acc;
      if take then l := Heap.null
    end
  done;
  !acc

let make_ctx env =
  let locals = { items = [||]; len = 0 } in
  (* [take] surrenders the locals to an adopter: read and clear in one
     atomic step so the references change owner exactly once. *)
  let frame =
    Env.register_locals env
      ~view:(fun () -> pointers locals ~take:false)
      ~take:(fun () -> pointers locals ~take:true)
  in
  { ctx_env = env; locals; frame }

let dispose_ctx ctx =
  (* Context disposal is a forced settle point: the thread is done, so its
     parked deferred-rc deltas must land (and any dead objects free) while
     its locals registration still anchors them for the auditor. *)
  Env.settle ctx.ctx_env;
  Env.unregister_locals ctx.ctx_env ctx.frame

let flush ctx = ignore (Lfrc.flush ctx.ctx_env)

let env ctx = ctx.ctx_env

(* A full stack first drops its vacant entries, keeping the order, and
   doubles only if that leaves it more than half full. *)
let make_room ls =
  let live = ref 0 in
  for i = 0 to ls.len - 1 do
    let l = ls.items.(i) in
    if l != vacant then begin
      ls.items.(!live) <- l;
      incr live
    end
  done;
  Array.fill ls.items !live (ls.len - !live) vacant;
  ls.len <- !live;
  if 2 * ls.len >= Array.length ls.items then begin
    let bigger = Array.make (max 8 (2 * Array.length ls.items)) vacant in
    Array.blit ls.items 0 bigger 0 ls.len;
    ls.items <- bigger
  end

let declare ctx =
  let l = ref Heap.null in
  let ls = ctx.locals in
  if ls.len = Array.length ls.items then make_room ls;
  ls.items.(ls.len) <- l;
  ls.len <- ls.len + 1;
  l

let rec find_local ls local i =
  if i < 0 || ls.items.(i) == local then i else find_local ls local (i - 1)

let rec pop_vacant ls =
  if ls.len > 0 && ls.items.(ls.len - 1) == vacant then begin
    ls.len <- ls.len - 1;
    pop_vacant ls
  end

(* Unlink [local] by physical equality — each local is listed once. *)
let unlink ls local =
  let i = find_local ls local (ls.len - 1) in
  if i >= 0 then begin
    ls.items.(i) <- vacant;
    pop_vacant ls
  end

let retire ctx local =
  (* Take the reference out of the frame first: clearing the local is
     atomic with destroy's own re-anchoring (registry entry or parked
     delta), so at every yield point exactly one owner holds it — were the
     frame still showing the pointer during the destroy cascade, a crash
     there would make an adopter drop it a second time. *)
  let p = !local in
  local := Heap.null;
  unlink ctx.locals local;
  Lfrc.destroy ctx.ctx_env p

let get local = !local

let load ctx cell local = Lfrc.load ctx.ctx_env ~src:cell ~dest:local

let store ctx cell p = Lfrc.store ctx.ctx_env ~dst:cell p

let store_alloc ctx cell local =
  (* The allocation reference moves from the local to the cell atomically
     with the winning CAS (inside [store_alloc_from]), never owned by
     both or neither. *)
  Lfrc.store_alloc_from ctx.ctx_env ~dst:cell local

let copy ctx local p = Lfrc.copy ctx.ctx_env ~dest:local p

let set_null ctx local =
  (* Same single-owner discipline as [retire]. *)
  let p = !local in
  local := Heap.null;
  Lfrc.destroy ctx.ctx_env p

let cas ctx cell ~old_ptr ~new_ptr =
  Lfrc.cas ctx.ctx_env cell ~old_ptr ~new_ptr

let dcas ctx c0 c1 ~old0 ~old1 ~new0 ~new1 =
  Lfrc.dcas ctx.ctx_env c0 c1 ~old0 ~old1 ~new0 ~new1

let dcas_ptr_val ctx ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val ~new_val =
  Lfrc.dcas_ptr_val ctx.ctx_env ~ptr_cell ~val_cell ~old_ptr ~new_ptr
    ~old_val ~new_val

let alloc ctx layout local =
  let p = Lfrc.alloc ctx.ctx_env layout in
  (* The previous content dies; the new object's count of 1 is carried by
     the local. Plain assignment plus destroy keeps the counts exact. *)
  let old = !local in
  local := p;
  Lfrc.destroy ctx.ctx_env old

let try_alloc ctx layout local =
  match Lfrc.try_alloc ctx.ctx_env layout with
  | Error `Out_of_memory -> false
  | Ok p ->
      let old = !local in
      local := p;
      Lfrc.destroy ctx.ctx_env old;
      true

let read_val ctx cell = Lfrc_atomics.Dcas.read (Env.dcas ctx.ctx_env) cell

let write_val ctx cell v =
  Lfrc_atomics.Dcas.write (Env.dcas ctx.ctx_env) cell v

let cas_val ctx cell old_v new_v =
  Lfrc_atomics.Dcas.cas (Env.dcas ctx.ctx_env) cell old_v new_v
