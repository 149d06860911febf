module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout

let null = Heap.null

let node_layout = Layout.make ~name:"set-node" ~n_ptrs:1 ~n_vals:1

let next_slot = 0
let key_slot = 0

module Make (O : Lfrc_core.Ops_intf.OPS_DCAS) = struct
  let name = "dlist-set-" ^ O.name

  type t = {
    env : Lfrc_core.Env.t;
    heap : Heap.t;
    head : Lfrc_simmem.Cell.t; (* root -> head sentinel node *)
    tomb : Lfrc_simmem.Cell.t; (* root -> tombstone sentinel node *)
  }

  type handle = { t : t; ctx : O.ctx }

  let next_cell t p = Heap.ptr_cell t.heap p next_slot
  let key_of t ctx p = O.read_val ctx (Heap.val_cell t.heap p key_slot)

  let create env =
    let heap = Lfrc_core.Env.heap env in
    let ctx = O.make_ctx env in
    let head = Heap.root heap ~name:"set-head" () in
    let tomb = Heap.root heap ~name:"set-tomb" () in
    let l = O.declare ctx in
    O.alloc ctx node_layout l;
    O.store_alloc ctx head l;
    O.alloc ctx node_layout l;
    O.store_alloc ctx tomb l;
    O.retire ctx l;
    O.dispose_ctx ctx;
    { env; heap; head; tomb }

  let register t = { t; ctx = O.make_ctx t.env }
  let unregister h = O.dispose_ctx h.ctx

  (* Search for [key]: position [prev]/[cur] so that every key strictly
     left of [cur] is < [key] and [cur] is the first node with key >=
     [key] (or null at the end). Restart whenever a node under our feet
     turns out deleted (its next points at the tombstone). Returns
     whether [cur] holds exactly [key]. *)
  let search ctx t key ~tm ~prev ~cur ~nxt =
    let rec restart () =
      O.load ctx t.head prev;
      O.load ctx (next_cell t (O.get prev)) cur;
      advance ()
    and advance () =
      if O.get cur = null then false
      else begin
        O.load ctx (next_cell t (O.get cur)) nxt;
        if O.get nxt = O.get tm then restart () (* cur was deleted *)
        else begin
          let k = key_of t ctx (O.get cur) in
          if k >= key then k = key
          else begin
            O.copy ctx prev (O.get cur);
            O.copy ctx cur (O.get nxt);
            advance ()
          end
        end
      end
    in
    restart ()

  let with_op h f =
    let ctx = h.ctx and t = h.t in
    let tm = O.declare ctx
    and prev = O.declare ctx
    and cur = O.declare ctx
    and nxt = O.declare ctx in
    O.load ctx t.tomb tm;
    let r = f ctx t ~tm ~prev ~cur ~nxt in
    List.iter (O.retire ctx) [ tm; prev; cur; nxt ];
    r

  let try_insert h key =
    with_op h (fun ctx t ~tm ~prev ~cur ~nxt ->
        let nd = O.declare ctx in
        let rec attempt () =
          if search ctx t key ~tm ~prev ~cur ~nxt then Ok false
          else if O.get nd = null && not (O.try_alloc ctx node_layout nd)
          then
            (* Allocation is the only fallible step and precedes any write
               to the list, so an OOM backs out with nothing to undo. *)
            Error `Out_of_memory
          else begin
            O.write_val ctx (Heap.val_cell t.heap (O.get nd) key_slot) key;
            O.store ctx (next_cell t (O.get nd)) (O.get cur);
            if
              O.cas ctx
                (next_cell t (O.get prev))
                ~old_ptr:(O.get cur) ~new_ptr:(O.get nd)
            then Ok true
            else attempt ()
          end
        in
        let r = attempt () in
        O.retire ctx nd;
        r)

  let insert h key =
    match try_insert h key with
    | Ok r -> r
    | Error `Out_of_memory -> raise Heap.Simulated_oom

  let remove h key =
    with_op h (fun ctx t ~tm ~prev ~cur ~nxt ->
        let rec attempt () =
          if not (search ctx t key ~tm ~prev ~cur ~nxt) then false
          else begin
            (* The search left [nxt] = cur.next (not the tombstone).
               Atomically swing prev past cur while cur's next is still
               [nxt], and tombstone cur in the same step — no insertion
               can slip between cur and its successor. *)
            if
              O.dcas ctx
                (next_cell t (O.get prev))
                (next_cell t (O.get cur))
                ~old0:(O.get cur) ~old1:(O.get nxt) ~new0:(O.get nxt)
                ~new1:(O.get tm)
            then true
            else attempt ()
          end
        in
        attempt ())

  let contains h key =
    with_op h (fun ctx t ~tm ~prev ~cur ~nxt ->
        search ctx t key ~tm ~prev ~cur ~nxt)

  let to_list h =
    with_op h (fun ctx t ~tm ~prev ~cur ~nxt ->
        ignore nxt;
        ignore tm;
        O.load ctx t.head prev;
        O.load ctx (next_cell t (O.get prev)) cur;
        let rec go acc =
          if O.get cur = null then List.rev acc
          else begin
            let k = key_of t ctx (O.get cur) in
            O.copy ctx prev (O.get cur);
            O.load ctx (next_cell t (O.get prev)) cur;
            go (k :: acc)
          end
        in
        go [])

  let destroy t =
    let ctx = O.make_ctx t.env in
    O.store ctx t.head null;
    O.store ctx t.tomb null;
    Heap.release_root t.heap t.head;
    Heap.release_root t.heap t.tomb;
    O.dispose_ctx ctx

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
