(** The recording {!Ops_intf.OPS_DCAS} instance: symbolic execution by proxy.

    Structure functors are applied to this module exactly as they are to
    {!Lfrc_ops} or {!Gc_ops}; instead of maintaining reference counts it
    appends one {!Ir.op} per call to the shared {!Recorder} and answers
    every observation (load results, CAS outcomes, value reads) from the
    recorder's oracle.

    Pointers stay *concrete*: client code derives cells directly from the
    ids it gets back ([Heap.ptr_cell heap (O.get l) slot]), so every
    non-null symbolic pointer is materialized as a real object in the
    analysis heap. Loads that observe "some unknown object" allocate a
    fresh one with a universal layout wide enough for every shipped
    structure's slot usage; [alloc]/[try_alloc] use the requested layout.
    Nothing is ever freed or mutated through this module — cells are only
    ever *named*, never written — so object ids are stable across the many
    re-executions of one action and paths cannot interfere. A path whose
    oracle choices make the client derive a cell from null (an
    invariant-violating heap the structure excludes) dies with the heap's
    own exception, which the enumerator records as {!Ir.Infeasible}. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Layout = Lfrc_simmem.Layout

(* Wide enough for every shipped structure: the Snark anchor and the
   skiplist index node use 3 pointer slots, nodes use at most 1 value
   slot plus the dlist/skiplist key. *)
let universal_layout = Layout.make ~name:"sym-object" ~n_ptrs:4 ~n_vals:2

module Make (R : sig
  val r : Recorder.t
end) : Lfrc_core.Ops_intf.OPS_DCAS = struct
  let r = R.r
  let name = "record"

  type ctx = { env : Lfrc_core.Env.t }

  let make_ctx env = { env }
  let dispose_ctx _ = ()
  let env ctx = ctx.env

  type local = { id : int; mutable v : Heap.ptr }

  let declare _ctx =
    let l = { id = Recorder.fresh_local r; v = Heap.null } in
    Recorder.emit r (Ir.Declare { local = l.id });
    l

  let retire _ctx l =
    Recorder.emit r (Ir.Retire { local = l.id });
    l.v <- Heap.null

  let get l =
    Recorder.emit r (Ir.Get { local = l.id; ptr = l.v });
    l.v

  let load ctx cell l =
    let p =
      Recorder.choose_load r ~fresh:(fun () ->
          Heap.alloc (Lfrc_core.Env.heap ctx.env) universal_layout)
    in
    Recorder.emit r (Ir.Load { cell = Cell.id cell; local = l.id; ptr = p });
    l.v <- p

  let store _ctx cell p =
    Recorder.emit r (Ir.Store { cell = Cell.id cell; ptr = p })

  let store_alloc _ctx cell l =
    Recorder.emit r (Ir.Store_alloc { cell = Cell.id cell; local = l.id });
    l.v <- Heap.null

  let copy _ctx l p =
    Recorder.emit r (Ir.Copy { local = l.id; ptr = p });
    l.v <- p

  let set_null _ctx l =
    Recorder.emit r (Ir.Set_null { local = l.id });
    l.v <- Heap.null

  let cas _ctx cell ~old_ptr ~new_ptr =
    let ok = Recorder.choose_bool r Ir.KCas in
    Recorder.emit r (Ir.Cas { cell = Cell.id cell; old_ptr; new_ptr; ok });
    ok

  let dcas _ctx c0 c1 ~old0 ~old1 ~new0 ~new1 =
    let ok = Recorder.choose_bool r Ir.KDcas in
    Recorder.emit r
      (Ir.Dcas
         { cell0 = Cell.id c0; cell1 = Cell.id c1; old0; old1; new0; new1; ok });
    ok

  let dcas_ptr_val _ctx ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val ~new_val
      =
    Recorder.add_pool r old_val;
    Recorder.add_pool r new_val;
    let ok = Recorder.choose_bool r Ir.KDcasPV in
    Recorder.emit r
      (Ir.Dcas_ptr_val
         {
           ptr_cell = Cell.id ptr_cell;
           val_cell = Cell.id val_cell;
           old_ptr;
           new_ptr;
           ok;
         });
    ok

  let alloc ctx layout l =
    let p = Heap.alloc (Lfrc_core.Env.heap ctx.env) layout in
    Recorder.emit r
      (Ir.Alloc { local = l.id; ptr = p; layout = layout.Layout.name });
    l.v <- p

  let try_alloc ctx layout l =
    let ok = Recorder.choose_bool r Ir.KTryAlloc in
    let p = if ok then Heap.alloc (Lfrc_core.Env.heap ctx.env) layout else 0 in
    Recorder.emit r (Ir.Try_alloc { local = l.id; ptr = p; ok });
    if ok then l.v <- p;
    ok

  let flush _ctx = Recorder.emit r Ir.Flush

  let read_val _ctx cell =
    let v = Recorder.choose_val r in
    Recorder.emit r (Ir.Read_val { cell = Cell.id cell; v });
    v

  let write_val _ctx cell v =
    Recorder.add_pool r v;
    Recorder.emit r (Ir.Write_val { cell = Cell.id cell; v })

  let cas_val _ctx cell oldv newv =
    Recorder.add_pool r oldv;
    Recorder.add_pool r newv;
    let ok = Recorder.choose_bool r Ir.KCasVal in
    Recorder.emit r (Ir.Cas_val { cell = Cell.id cell; ok });
    ok
end
