module Heap = Lfrc_simmem.Heap

let name = "lfrc"

type local = Heap.ptr ref

(* Locals hold counted references, so LFRC itself never needs them
   published. The registration with {!Env} (not with the heap — heap
   frames would change what the tracing collectors and invariant checkers
   see) exists for the fault auditor: when a simulated thread crashes, its
   registered locals are the "lost references" that account for any
   objects it leaks. *)
type ctx = {
  ctx_env : Env.t;
  locals : local list ref;
  frame : Env.local_frame;
}

let make_ctx env =
  let locals = ref [] in
  let frame =
    Env.register_locals env
      ~view:(fun () -> List.map ( ! ) !locals)
      ~take:(fun () ->
        (* Surrender the locals to an adopter: read and clear in one
           atomic step so the references change owner exactly once. *)
        List.map
          (fun l ->
            let v = !l in
            l := Heap.null;
            v)
          !locals)
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

let declare ctx =
  let l = ref Heap.null in
  ctx.locals := l :: !(ctx.locals);
  l

(* Unlink [local] by physical equality — each local is listed once —
   copying only the newer locals in front of it. *)
let rec unlink local = function
  | [] -> []
  | l :: rest -> if l == local then rest else l :: unlink local rest

let retire ctx local =
  (* Take the reference out of the frame first: clearing the local is
     atomic with destroy's own re-anchoring (registry entry or parked
     delta), so at every yield point exactly one owner holds it — were the
     frame still showing the pointer during the destroy cascade, a crash
     there would make an adopter drop it a second time. *)
  let p = !local in
  local := Heap.null;
  ctx.locals := unlink local !(ctx.locals);
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
