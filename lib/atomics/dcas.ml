module Cell = Lfrc_simmem.Cell
module Sched = Lfrc_sched.Sched

type impl = Atomic_step | Striped_lock | Software_mcas

type injector = { inject_cas : unit -> bool; inject_dcas : unit -> bool }

type observer = {
  on_read : Cell.t -> int -> unit;
  on_write : Cell.t -> int -> unit;
  on_rmw : Cell.t -> unit;
  on_cas : Cell.t -> old_v:int -> new_v:int -> ok:bool -> unit;
  on_dcas :
    Cell.t ->
    Cell.t ->
    old0:int ->
    old1:int ->
    new0:int ->
    new1:int ->
    ok:bool ->
    unit;
  on_spurious_cas : unit -> unit;
  on_spurious_dcas : unit -> unit;
}

type t = {
  kind : impl;
  stripes : Mutex.t array; (* used by Striped_lock only *)
  mutable injector : injector option;
  mutable observer : observer option; (* one branch per step when None *)
}

let n_stripes = 64

let create kind =
  {
    kind;
    stripes = Array.init n_stripes (fun _ -> Mutex.create ());
    injector = None;
    observer = None;
  }

let set_injector t i = t.injector <- i
let set_observer t o = t.observer <- o

let impl t = t.kind

let impl_name t =
  match t.kind with
  | Atomic_step -> "atomic-step"
  | Striped_lock -> "striped-lock"
  | Software_mcas -> "software-mcas"

(* The [Striped_lock] arms lock and unlock inline, with no closure to
   build: [stripe] names a cell's lock, and a cell op that raises (a
   write to freed memory) releases the stripes before the exception
   leaves. *)
let stripe t c = t.stripes.(Cell.id c land (n_stripes - 1))

let unlock_reraise m e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.unlock m;
  Printexc.raise_with_backtrace e bt

(* Over software MCAS a blind write or a fetch-add is a read-then-CAS
   loop, so that it cooperates with in-flight descriptors. *)
let rec mcas_write c v = if not (Mcas.cas c (Mcas.read c) v) then mcas_write c v

let rec mcas_fetch_add c d =
  let v = Mcas.read c in
  if Mcas.cas c v (v + d) then v else mcas_fetch_add c d

let read t c =
  Sched.point ();
  let v =
    match t.kind with
    | Atomic_step | Striped_lock -> Cell.get c
    | Software_mcas -> Mcas.read c
  in
  (match t.observer with None -> () | Some o -> o.on_read c v);
  v

let write t c v =
  Sched.point ();
  (match t.kind with
  | Atomic_step -> Cell.set c v
  | Striped_lock -> (
      let m = stripe t c in
      Mutex.lock m;
      match Cell.set c v with
      | () -> Mutex.unlock m
      | exception e -> unlock_reraise m e)
  | Software_mcas -> mcas_write c v);
  match t.observer with None -> () | Some o -> o.on_write c v

(* A spurious failure reports false without comparing or writing anything —
   the LL/SC-style failure mode every LFRC retry loop must compensate for
   (dropping its speculative count increments before trying again). *)
let spurious_cas t =
  match t.injector with Some i -> i.inject_cas () | None -> false

let spurious_dcas t =
  match t.injector with Some i -> i.inject_dcas () | None -> false

let cas t c old_v new_v =
  Sched.point ();
  if spurious_cas t then begin
    (match t.observer with None -> () | Some o -> o.on_spurious_cas ());
    false
  end
  else begin
    let ok =
      match t.kind with
      | Atomic_step -> Cell.cas c old_v new_v
      | Striped_lock -> (
          let m = stripe t c in
          Mutex.lock m;
          match Cell.cas c old_v new_v with
          | ok ->
              Mutex.unlock m;
              ok
          | exception e -> unlock_reraise m e)
      | Software_mcas -> Mcas.cas c old_v new_v
    in
    (match t.observer with
    | None -> ()
    | Some o -> o.on_cas c ~old_v ~new_v ~ok);
    ok
  end

let fetch_add t c d =
  Sched.point ();
  let v =
    match t.kind with
    | Atomic_step -> Cell.fetch_and_add c d
    | Striped_lock -> (
        let m = stripe t c in
        Mutex.lock m;
        match Cell.fetch_and_add c d with
        | v ->
            Mutex.unlock m;
            v
        | exception e -> unlock_reraise m e)
    | Software_mcas -> mcas_fetch_add c d
  in
  (match t.observer with None -> () | Some o -> o.on_rmw c);
  v

(* Compare both words, then swap both or neither (§2.2). Indivisible
   between yield points under the simulator; under a stripe lock pair
   otherwise. *)
let swap2 c0 c1 ~old0 ~old1 ~new0 ~new1 =
  let ok = Cell.get c0 = old0 && Cell.get c1 = old1 in
  if ok then begin
    Cell.set c0 new0;
    Cell.set c1 new1
  end;
  ok

(* [swap2] under both cells' stripes, taken in stripe order (once when
   the cells share one). *)
let locked_swap2 t c0 c1 ~old0 ~old1 ~new0 ~new1 =
  let i0 = Cell.id c0 land (n_stripes - 1)
  and i1 = Cell.id c1 land (n_stripes - 1) in
  let two = i0 <> i1 in
  let lo = t.stripes.(if i0 < i1 then i0 else i1)
  and hi = t.stripes.(if i0 < i1 then i1 else i0) in
  Mutex.lock lo;
  if two then Mutex.lock hi;
  match swap2 c0 c1 ~old0 ~old1 ~new0 ~new1 with
  | ok ->
      if two then Mutex.unlock hi;
      Mutex.unlock lo;
      ok
  | exception e ->
      if two then Mutex.unlock hi;
      unlock_reraise lo e

let dcas t c0 c1 ~old0 ~old1 ~new0 ~new1 =
  Sched.point ();
  if spurious_dcas t then begin
    (match t.observer with None -> () | Some o -> o.on_spurious_dcas ());
    false
  end
  else begin
    let ok =
      match t.kind with
      | Atomic_step -> swap2 c0 c1 ~old0 ~old1 ~new0 ~new1
      | Striped_lock -> locked_swap2 t c0 c1 ~old0 ~old1 ~new0 ~new1
      | Software_mcas -> Mcas.dcas c0 c1 old0 old1 new0 new1
    in
    (match t.observer with
    | None -> ()
    | Some o -> o.on_dcas c0 c1 ~old0 ~old1 ~new0 ~new1 ~ok);
    ok
  end
