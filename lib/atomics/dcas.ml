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

let with_stripe t c f =
  Mutex.protect t.stripes.(Cell.id c land (n_stripes - 1)) f

let with_two_stripes t c0 c1 f =
  let i0 = Cell.id c0 land (n_stripes - 1)
  and i1 = Cell.id c1 land (n_stripes - 1) in
  let lo = min i0 i1 and hi = max i0 i1 in
  Mutex.protect t.stripes.(lo) (fun () ->
      if hi = lo then f () else Mutex.protect t.stripes.(hi) f)

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
  | Striped_lock -> with_stripe t c (fun () -> Cell.set c v)
  | Software_mcas ->
      (* A blind write must still cooperate with in-flight descriptors. *)
      let rec go () = if not (Mcas.cas c (Mcas.read c) v) then go () in
      go ());
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
      | Striped_lock -> with_stripe t c (fun () -> Cell.cas c old_v new_v)
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
    | Striped_lock -> with_stripe t c (fun () -> Cell.fetch_and_add c d)
    | Software_mcas ->
        let rec go () =
          let v = Mcas.read c in
          if Mcas.cas c v (v + d) then v else go ()
        in
        go ()
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
      | Striped_lock ->
          with_two_stripes t c0 c1 (fun () ->
              swap2 c0 c1 ~old0 ~old1 ~new0 ~new1)
      | Software_mcas -> Mcas.dcas c0 c1 old0 old1 new0 new1
    in
    (match t.observer with
    | None -> ()
    | Some o -> o.on_dcas c0 c1 ~old0 ~old1 ~new0 ~new1 ~ok);
    ok
  end
