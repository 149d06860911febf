

module Make (O : Lfrc_core.Ops_intf.OPS_DCAS) = struct
  include Snark_common.Core (O)
  open Snark_common

  let name = "snark-" ^ O.name

  (* popRight per the cited DISC 2000 algorithm (mirrored for popLeft),
     with the LFRC paper's null-for-self-pointer change: a popped node's
     inward link is set to null, and the emptiness test checks the hat
     node's outward link for null. *)
  let pop h side =
    let t = h.t and ctx = h.ctx in
    let rh = O.declare ctx
    and lh = O.declare ctx
    and rh_in = O.declare ctx
    and rh_out = O.declare ctx
    and dm = O.declare ctx in
    let retire_all () = List.iter (O.retire ctx) [ rh; lh; rh_in; rh_out; dm ] in
    O.load ctx (dummy_cell t) dm;
    let rec loop () =
      O.load ctx (hat t side) rh;
      O.load ctx (other_hat t side) lh;
      O.load ctx (slot_cell t (O.get rh) side.out_slot) rh_out;
      if O.get rh_out = null then None (* sentinel at the hat: empty *)
      else if O.get rh = O.get lh then begin
        (* single node: retract both hats onto Dummy *)
        if
          O.dcas ctx (hat t side) (other_hat t side) ~old0:(O.get rh)
            ~old1:(O.get lh) ~new0:(O.get dm) ~new1:(O.get dm)
        then Some (O.read_val ctx (Snode.v_cell t.heap (O.get rh)))
        else loop ()
      end
      else begin
        O.load ctx (slot_cell t (O.get rh) side.in_slot) rh_in;
        if
          O.dcas ctx (hat t side)
            (slot_cell t (O.get rh) side.in_slot)
            ~old0:(O.get rh) ~old1:(O.get rh_in) ~new0:(O.get rh_in)
            ~new1:null
        then begin
          let v = O.read_val ctx (Snode.v_cell t.heap (O.get rh)) in
          (* Cut the popped node's outward link so chains of dead nodes do
             not accumulate (the DISC algorithm's rh->R = Dummy). *)
          O.store ctx (slot_cell t (O.get rh) side.out_slot) (O.get dm);
          Some v
        end
        else loop ()
      end
    in
    let result = loop () in
    retire_all ();
    result

  let push_right h v = push h right_side v
  let push_left h v = push h left_side v
  let try_push_right h v = try_push h right_side v
  let try_push_left h v = try_push h left_side v
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
