
let claimed = -0x3C1A1ED

module Make (O : Lfrc_core.Ops_intf.OPS_DCAS) = struct
  include Snark_common.Core (O)
  open Snark_common

  let name = "snark-fixed-" ^ O.name

  let push_checked h side v =
    assert (v <> claimed);
    push h side v

  let try_push_checked h side v =
    assert (v <> claimed);
    try_push h side v

  (* One attempt at unlinking the claimed node [n] from side [side]:
     swing the hat to n's inward neighbour and null the inward link, in
     one DCAS. Returns true once the hat no longer points at [n]. *)
  let unlink_step ctx t n side =
    let cur = O.declare ctx and m = O.declare ctx in
    let finished =
      O.load ctx (hat t side) cur;
      if O.get cur <> n then true
      else begin
        O.load ctx (slot_cell t n side.in_slot) m;
        ignore
          (O.dcas ctx (hat t side)
             (slot_cell t n side.in_slot)
             ~old0:n ~old1:(O.get m) ~new0:(O.get m) ~new1:null);
        O.load ctx (hat t side) cur;
        O.get cur <> n
      end
    in
    O.retire ctx cur;
    O.retire ctx m;
    finished

  (* Garbage-chain maintenance. A popped node keeps its outward link, and
     its neighbour keeps a link to it, so dead nodes form chains retained
     from the deque. The published algorithm redirected the link
     unconditionally — which can sever the only path the other hat has to
     live nodes (a race this repository's model checker caught in an
     earlier draft). The safe rule: walk outward through *claimed* nodes;
     only if the chain terminates at Dummy or null — i.e. nothing live
     lies beyond — sever it at the first link. Skipping the chain then
     leads any walker to the same terminal, and the whole chain cascades
     back to the allocator at once. *)
  let cut_dead_chain ctx t n side =
    let dm = O.declare ctx
    and first = O.declare ctx
    and cur = O.declare ctx
    and nxt = O.declare ctx in
    O.load ctx (dummy_cell t) dm;
    O.load ctx (slot_cell t n side.out_slot) first;
    let head = O.get first in
    if
      head <> Snark_common.null
      && head <> O.get dm
      && O.read_val ctx (Snode.v_cell t.heap head) = claimed
    then begin
      O.copy ctx cur head;
      let rec ends_at_terminal () =
        O.load ctx (slot_cell t (O.get cur) side.out_slot) nxt;
        let x = O.get nxt in
        if x = Snark_common.null || x = O.get dm then true
        else if O.read_val ctx (Snode.v_cell t.heap x) = claimed then begin
          O.copy ctx cur x;
          ends_at_terminal ()
        end
        else false
      in
      if ends_at_terminal () then
        ignore
          (O.cas ctx
             (slot_cell t n side.out_slot)
             ~old_ptr:head ~new_ptr:(O.get dm))
    end;
    List.iter (O.retire ctx) [ dm; first; cur; nxt ]

  let pop h side =
    let t = h.t and ctx = h.ctx in
    let rh = O.declare ctx and rh_out = O.declare ctx in
    let retire_all () = List.iter (O.retire ctx) [ rh; rh_out ] in
    let rec loop () =
      O.load ctx (hat t side) rh;
      let v = O.read_val ctx (Snode.v_cell t.heap (O.get rh)) in
      if v = claimed then begin
        (* dead node parked at the hat: help unlink, then retry *)
        ignore (unlink_step ctx t (O.get rh) side);
        loop ()
      end
      else begin
        O.load ctx (slot_cell t (O.get rh) side.out_slot) rh_out;
        if O.get rh_out = null then begin
          (* The hat node's outward link is null, which suggests empty —
             but the two reads were separate, and between them the node
             can be claimed from the other side and its link nulled while
             live nodes remain (the published algorithm's false-empty
             race, rediscovered here by the model checker). Linearize the
             empty answer with a no-op DCAS that atomically re-validates
             both facts. *)
          if
            O.dcas ctx (hat t side)
              (slot_cell t (O.get rh) side.out_slot)
              ~old0:(O.get rh) ~old1:null ~new0:(O.get rh) ~new1:null
          then None
          else loop ()
        end
        else if
          (* linearization: claim the value while the node is at the hat *)
          O.dcas_ptr_val ctx ~ptr_cell:(hat t side)
            ~val_cell:(Snode.v_cell t.heap (O.get rh))
            ~old_ptr:(O.get rh) ~new_ptr:(O.get rh) ~old_val:v
            ~new_val:claimed
        then begin
          (* cleanup: unlink the dead node. Its outward link must stay
             *usable*: it is the path the other side's unlink helper
             follows if its hat is parked on this node, so blindly
             redirecting it (the published algorithm's cut) can make a
             non-empty deque look empty — a bug this repository's model
             checker caught in an earlier draft.

             Without any cut, however, every popped node stays referenced
             by its neighbour's link until a push splices over it, so
             FIFO usage retains its whole pop history. The safe middle
             ground: redirect the link to Dummy only when it points at a
             *claimed* node whose own outward link already ends the chain
             (Dummy or null) — skipping that node leads a walker to the
             same terminal, so reachability is unchanged, and each pop
             then releases the previous dead node. *)
          let n = O.get rh in
          let rec unlink () = if not (unlink_step ctx t n side) then unlink () in
          unlink ();
          cut_dead_chain ctx t n side;
          Some v
        end
        else loop ()
      end
    in
    let result = loop () in
    retire_all ();
    result

  let push_right h v = push_checked h right_side v
  let push_left h v = push_checked h left_side v
  let try_push_right h v = try_push_checked h right_side v
  let try_push_left h v = try_push_checked h left_side v
  let pop_right h = pop h right_side
  let pop_left h = pop h left_side

  let destroy t = destroy_with ~pop_left t

  include Container_intf.With_env (struct
    let name = name

    type nonrec t = t
    type nonrec handle = handle

    let create = create
    let register = register
    let unregister = unregister
    let destroy = destroy
  end)
end
