(** Shared core of the two Snark variants: the anchor object, the
    constructor (paper Figure 1 lines 31..39), the push operation (lines
    49..68) and the destructor (lines 40..44). The published and corrected
    deques differ only in how they pop; see {!Snark} and {!Snark_fixed}. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell

let null = Heap.null

(* Left and right operations are mirror images; a [side] names the slots
   so each algorithm is written once. For a push/pop on side S, [out_slot]
   is the node link facing away from the deque (R for the right side) and
   [in_slot] the link facing into it (L for the right side). *)
type side = {
  out_slot : int;
  in_slot : int;
  hat_slot : int;
  other_hat_slot : int;
}

let right_side =
  {
    out_slot = Snode.slot_r;
    in_slot = Snode.slot_l;
    hat_slot = Snode.slot_right_hat;
    other_hat_slot = Snode.slot_left_hat;
  }

let left_side =
  {
    out_slot = Snode.slot_l;
    in_slot = Snode.slot_r;
    hat_slot = Snode.slot_left_hat;
    other_hat_slot = Snode.slot_right_hat;
  }

module Core (O : Lfrc_core.Ops_intf.OPS_DCAS) = struct
  type t = {
    env : Lfrc_core.Env.t;
    heap : Heap.t;
    root : Cell.t;
    anchor_cells : Cell.t array; (* Dummy, LeftHat, RightHat *)
  }

  type handle = { t : t; ctx : O.ctx }

  let hat t side = t.anchor_cells.(side.hat_slot)
  let other_hat t side = t.anchor_cells.(side.other_hat_slot)
  let dummy_cell t = t.anchor_cells.(Snode.slot_dummy)
  let slot_cell t p slot = Heap.ptr_cell t.heap p slot

  (* Constructor: paper Figure 1, lines 34..39. The SNode constructor's
     null-initialization (line 32) is the heap allocator's contract. *)
  let create env =
    let heap = Lfrc_core.Env.heap env in
    let ctx = O.make_ctx env in
    let anchor_l = O.declare ctx in
    O.alloc ctx Snode.snark anchor_l;
    let anchor = O.get anchor_l in
    let anchor_cells = Array.init 3 (fun i -> Heap.ptr_cell heap anchor i) in
    let t_root = Heap.root heap ~name:"snark" () in
    let d = O.declare ctx in
    O.alloc ctx Snode.snode d;
    (* line 35: LFRCStoreAlloc(&Dummy, new SNode) *)
    O.store_alloc ctx anchor_cells.(Snode.slot_dummy) d;
    (* lines 36..37: Dummy->L = Dummy->R = null — established by the
       allocator; lines 38..39: both hats point at Dummy. *)
    let dm = O.declare ctx in
    O.load ctx anchor_cells.(Snode.slot_dummy) dm;
    O.store ctx anchor_cells.(Snode.slot_left_hat) (O.get dm);
    O.store ctx anchor_cells.(Snode.slot_right_hat) (O.get dm);
    O.retire ctx dm;
    O.retire ctx d;
    (* The structure's reference to the anchor lives in a registered
       root. *)
    O.store_alloc ctx t_root anchor_l;
    O.retire ctx anchor_l;
    O.dispose_ctx ctx;
    { env; heap; root = t_root; anchor_cells }

  let register t = { t; ctx = O.make_ctx t.env }
  let unregister h = O.dispose_ctx h.ctx

  (* pushRight: paper Figure 1 lines 49..68 (mirrored for pushLeft). *)
  let try_push h side v =
    let t = h.t and ctx = h.ctx in
    let nd = O.declare ctx
    and rh = O.declare ctx
    and rh_out = O.declare ctx
    and lh = O.declare ctx
    and dm = O.declare ctx in
    let retire_all () = List.iter (O.retire ctx) [ nd; rh; rh_out; lh; dm ] in
    (* line 49's allocation is the only fallible step; it precedes every
       write to the deque, so an OOM backs out with nothing to undo. *)
    if not (O.try_alloc ctx Snode.snode nd) then begin
      retire_all ();
      Error `Out_of_memory
    end
    else begin
    O.load ctx (dummy_cell t) dm;
    (* line 54: nd->R = Dummy *)
    O.store ctx (slot_cell t (O.get nd) side.out_slot) (O.get dm);
    (* line 55: nd->V = v *)
    O.write_val ctx (Snode.v_cell t.heap (O.get nd)) v;
    let rec loop () =
      O.load ctx (hat t side) rh (* line 57 *);
      O.load ctx (slot_cell t (O.get rh) side.out_slot) rh_out (* line 58 *);
      if O.get rh_out = null then begin
        (* lines 59..62: the deque looks empty from this side *)
        O.store ctx (slot_cell t (O.get nd) side.in_slot) (O.get dm);
        O.load ctx (other_hat t side) lh;
        if
          O.dcas ctx (hat t side) (other_hat t side) ~old0:(O.get rh)
            ~old1:(O.get lh) ~new0:(O.get nd) ~new1:(O.get nd)
        then ()
        else loop ()
      end
      else begin
        (* lines 65..66: splice at this side's end *)
        O.store ctx (slot_cell t (O.get nd) side.in_slot) (O.get rh);
        if
          O.dcas ctx (hat t side)
            (slot_cell t (O.get rh) side.out_slot)
            ~old0:(O.get rh) ~old1:(O.get rh_out) ~new0:(O.get nd)
            ~new1:(O.get nd)
        then ()
        else loop ()
      end
    in
    loop ();
    retire_all ();
    Ok ()
    end

  let push h side v =
    match try_push h side v with
    | Ok () -> ()
    | Error `Out_of_memory -> raise Heap.Simulated_oom

  (* Destructor: paper Figure 1 lines 40..44. Quiescent use only;
     [pop_left] is supplied by the variant. *)
  let destroy_with ~pop_left t =
    let ctx = O.make_ctx t.env in
    let h = { t; ctx } in
    let rec drain () = if pop_left h <> None then drain () in
    drain ();
    O.store ctx (dummy_cell t) null;
    O.store ctx t.anchor_cells.(Snode.slot_left_hat) null;
    O.store ctx t.anchor_cells.(Snode.slot_right_hat) null;
    O.store ctx t.root null;
    Heap.release_root t.heap t.root;
    O.dispose_ctx ctx
end
