(* [Lfrc_core.Lfrc_ops] with every pointer operation recorded as a span.

   Structures are functors over the OPS signature, so applying them to
   this module traces each OPS call they make without touching the
   library. Recording goes to the calling thread's {!Span.thread}; calls
   from a thread with none attached pass straight through. *)

module L = Lfrc_core.Lfrc_ops
include L

let load ctx cell local =
  let th = Span.current () in
  Span.enter th;
  L.load ctx cell local;
  Span.leave th 0

let store ctx cell p =
  let th = Span.current () in
  Span.enter th;
  L.store ctx cell p;
  Span.leave th 1

let store_alloc ctx cell local =
  let th = Span.current () in
  Span.enter th;
  L.store_alloc ctx cell local;
  Span.leave th 2

let copy ctx local p =
  let th = Span.current () in
  Span.enter th;
  L.copy ctx local p;
  Span.leave th 3

let set_null ctx local =
  let th = Span.current () in
  Span.enter th;
  L.set_null ctx local;
  Span.leave th 4

let retire ctx local =
  let th = Span.current () in
  Span.enter th;
  L.retire ctx local;
  Span.leave th 5

let cas ctx cell ~old_ptr ~new_ptr =
  let th = Span.current () in
  Span.enter th;
  let r = L.cas ctx cell ~old_ptr ~new_ptr in
  Span.leave th 6;
  r

let dcas ctx c0 c1 ~old0 ~old1 ~new0 ~new1 =
  let th = Span.current () in
  Span.enter th;
  let r = L.dcas ctx c0 c1 ~old0 ~old1 ~new0 ~new1 in
  Span.leave th 7;
  r

let dcas_ptr_val ctx ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val ~new_val =
  let th = Span.current () in
  Span.enter th;
  let r =
    L.dcas_ptr_val ctx ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val ~new_val
  in
  Span.leave th 8;
  r

let alloc ctx layout local =
  let th = Span.current () in
  Span.enter th;
  L.alloc ctx layout local;
  Span.leave th 9

let try_alloc ctx layout local =
  let th = Span.current () in
  Span.enter th;
  let r = L.try_alloc ctx layout local in
  Span.leave th 10;
  r

let read_val ctx cell =
  let th = Span.current () in
  Span.enter th;
  let r = L.read_val ctx cell in
  Span.leave th 11;
  r

let write_val ctx cell v =
  let th = Span.current () in
  Span.enter th;
  L.write_val ctx cell v;
  Span.leave th 12

let cas_val ctx cell old_v new_v =
  let th = Span.current () in
  Span.enter th;
  let r = L.cas_val ctx cell old_v new_v in
  Span.leave th 13;
  r

let flush ctx =
  let th = Span.current () in
  Span.enter th;
  L.flush ctx;
  Span.leave th 14

let thread_start = Span.attach
let thread_stop = Span.detach
let op_start ~code ~t0 = Span.op_start (Span.current ()) ~code ~t0
let op_stop ~t1 = Span.op_stop (Span.current ()) ~t1
