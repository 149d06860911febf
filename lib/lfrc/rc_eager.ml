(* Eager counts, the paper's Figure 2: every +1 and -1 is a CAS loop on
   the object's count word, a load's +1 rides the Figure-2 DCAS, and a
   count that reaches zero is detected by the decrement that took it
   there. The mode keeps no state of its own. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module E = Env_base

type env = E.t
type state = unit

(* add_to_rc (Figure 2, lines 16..20). The caller holds a counted
   reference, so the object cannot be freed while the loop runs. The loop
   is a top-level function, so an adjustment builds no closure. *)
let rec add_retry env d rc p v ~slow burst =
  let oldrc = Dcas.read d rc in
  if Dcas.cas d rc oldrc (oldrc + v) then begin
    E.record_retries env E.k_rc_retry burst;
    (* Contended transitions record their retry burst; the quiet common
       case stays out of the histogram. *)
    if burst > 0 then
      Lfrc_obs.Metrics.observe (E.metrics env) E.k_rc_retry burst;
    E.record_lineage_rc env ~addr:p ~old_rc:oldrc ~delta:v;
    oldrc
  end
  else begin
    if slow then E.retry_slow env E.k_rc_retry;
    add_retry env d rc p v ~slow (burst + 1)
  end

let add_to_rc env p v =
  let rc = Heap.rc_cell (E.heap env) p in
  Lfrc_obs.Blame.bind_owner (E.blame env) ~cell:(Cell.id rc) ~addr:p;
  add_retry env (E.dcas env) rc p v ~slow:(E.per_retry_obs env) 0

let mode () = E.Eager
let borrow () _ ~src:_ _ = false
let load_mint () = 1

let loaded () env ~src:_ a ~old_rc =
  E.record_lineage_rc env ~addr:a ~old_rc ~delta:1

(* No yield after add_to_rc's winning CAS: the +1 and its publication
   record land together. *)
let publish () env p =
  ignore (add_to_rc env p 1);
  E.begin_publish env ~weight:1 p

let acquire_copy () env p =
  if p <> Heap.null then publish () env p;
  true

let installed () _ ~cell:_ ~old:_ _ ~owned:_ = ()
let retract () _ _ = false

let drop () env p =
  E.begin_destroy env p;
  true

(* The sanitizer learns that an object entered its destruction epoch at
   the zero-detect itself — atomically with the winning decrement, before
   any destroy-path read of the dead object's slots. *)
let release () env p =
  let died = add_to_rc env p (-1) = 1 in
  if died then Lfrc_sanitize.Shadow.note_dying (E.sanitizer env) p
  else E.end_destroy env p;
  died

let claim () _ ~cell:_ _ = ()
let nested_drop_span = true
let recursive_teardown = true
let flush () _ = 0
let adopt () _ ~crashed:_ = 0
let adopt_publication () _ _ ~weight:_ = ()
let anchors () = []
