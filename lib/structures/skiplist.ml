module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout

let null = Heap.null
let max_level = 8

(* Data nodes are the ordered list's (key, next); index nodes form towers
   above them: right-pointers walk a level, down-pointers descend, node
   points at the data node whose liveness they mirror. *)
let data_layout = Layout.make ~name:"skip-data" ~n_ptrs:1 ~n_vals:1
let index_layout = Layout.make ~name:"skip-index" ~n_ptrs:3 ~n_vals:0

let data_next = 0
let data_key = 0
let idx_right = 0
let idx_down = 1
let idx_node = 2

module Make (O : Lfrc_core.Ops_intf.OPS_DCAS) = struct
  let name = "skiplist-" ^ O.name

  type t = {
    env : Lfrc_core.Env.t;
    heap : Heap.t;
    data_head : Lfrc_simmem.Cell.t; (* root -> first data node chain *)
    tomb : Lfrc_simmem.Cell.t; (* root -> tombstone sentinel *)
    heads : Lfrc_simmem.Cell.t array; (* root index-level entry points, 0 = level 1 *)
  }

  type handle = { t : t; ctx : O.ctx; rng : Lfrc_util.Rng.t }

  let dnext t p = Heap.ptr_cell t.heap p data_next
  let dkey t ctx p = O.read_val ctx (Heap.val_cell t.heap p data_key)
  let iright t p = Heap.ptr_cell t.heap p idx_right
  let idown t p = Heap.ptr_cell t.heap p idx_down
  let inode t p = Heap.ptr_cell t.heap p idx_node

  let create env =
    let heap = Lfrc_core.Env.heap env in
    let ctx = O.make_ctx env in
    let data_head = Heap.root heap ~name:"skip-head" () in
    let tomb = Heap.root heap ~name:"skip-tomb" () in
    let l = O.declare ctx in
    O.alloc ctx data_layout l;
    O.store_alloc ctx tomb l;
    O.retire ctx l;
    O.dispose_ctx ctx;
    {
      env;
      heap;
      data_head;
      tomb;
      heads = Array.init max_level (fun i -> Heap.root heap ~name:(Printf.sprintf "skip-L%d" (i + 1)) ());
    }

  let register ?(seed = 0x5EED) t =
    { t; ctx = O.make_ctx t.env; rng = Lfrc_util.Rng.create seed }

  let unregister h = O.dispose_ctx h.ctx

  (* A data node is dead once its next pointer is the tombstone. *)
  let is_dead ctx t ~tm ~probe p =
    O.load ctx (dnext t p) probe;
    O.get probe = O.get tm

  (* --- data level: the DCAS ordered list, parameterized by a starting
     predecessor (the index search's hand-off) --- *)

  (* Position [prev]/[cur] for [key], walking from [start] (null = list
     head). Returns whether [cur] holds [key]; [nxt] ends as cur's
     successor. Restarts from the very head whenever a tombstone is
     stepped on. *)
  let data_search ctx t key ~start ~tm ~prev ~cur ~nxt =
    let rec restart ~from_start =
      if from_start && O.get start <> null then begin
        O.copy ctx prev (O.get start);
        (* the hand-off node may itself be dying: fall back to the head *)
        O.load ctx (dnext t (O.get prev)) cur;
        if O.get cur = O.get tm then begin
          O.set_null ctx start;
          restart ~from_start:false
        end
        else advance ()
      end
      else begin
        (* prev = null means the list head cell is the predecessor link *)
        O.set_null ctx prev;
        O.load ctx t.data_head cur;
        advance ()
      end
    and advance () =
      if O.get cur = null then false
      else begin
        O.load ctx (dnext t (O.get cur)) nxt;
        if O.get nxt = O.get tm then restart ~from_start:false
        else begin
          let k = dkey t ctx (O.get cur) in
          if k >= key then k = key
          else begin
            O.copy ctx prev (O.get cur);
            O.copy ctx cur (O.get nxt);
            advance ()
          end
        end
      end
    in
    restart ~from_start:true

  let prev_cell t ~prev =
    if O.get prev = null then t.data_head else dnext t (O.get prev)

  (* --- index levels --- *)

  (* Walk one index level rightward while the indexed keys are < key,
     pruning entries whose data node is dead. The walk starts at [from]
     (an index node of this level — the down-pointer of the level above's
     predecessor, the classic descent) or at the level's [entry] link when
     [from] is null. Leaves [iprev] at the rightmost index node with
     key < key (null = the entry link) and accumulates the best
     data-level predecessor in [out_start]. *)
  let index_walk ctx t key ~entry ~from ~tm ~iprev ~icur ~probe ~tmp
      ~out_start =
    if O.get from <> null then begin
      O.copy ctx iprev (O.get from);
      O.load ctx (iright t (O.get iprev)) icur
    end
    else begin
      O.set_null ctx iprev;
      O.load ctx entry icur
    end;
    let rec go () =
      if O.get icur = null then ()
      else begin
        O.load ctx (inode t (O.get icur)) tmp;
        let node = O.get tmp in
        if is_dead ctx t ~tm ~probe node then begin
          (* prune: unlink this index entry and re-read the link *)
          O.load ctx (iright t (O.get icur)) tmp;
          let link =
            if O.get iprev = null then entry else iright t (O.get iprev)
          in
          ignore (O.cas ctx link ~old_ptr:(O.get icur) ~new_ptr:(O.get tmp));
          O.load ctx link icur;
          go ()
        end
        else begin
          let k = dkey t ctx node in
          if k < key then begin
            O.copy ctx iprev (O.get icur);
            O.copy ctx out_start node;
            O.load ctx (iright t (O.get icur)) icur;
            go ()
          end
          else ()
        end
      end
    in
    go ()

  (* Full search: descend the index — each level starts at the previous
     level predecessor's down-pointer — then walk the data level from the
     hand-off. [preds.(l)] receives the level-(l+1) index predecessor (for
     tower insertion). *)
  let search ctx t key ~tm ~preds ~start ~from ~prev ~cur ~nxt ~icur ~probe
      ~tmp =
    O.set_null ctx start;
    for l = max_level - 1 downto 0 do
      if l = max_level - 1 || O.get preds.(l + 1) = null then
        O.set_null ctx from
      else O.load ctx (idown t (O.get preds.(l + 1))) from;
      index_walk ctx t key ~entry:t.heads.(l) ~from ~tm ~iprev:preds.(l)
        ~icur ~probe ~tmp ~out_start:start
    done;
    data_search ctx t key ~start ~tm ~prev ~cur ~nxt

  (* Geometric tower height: level i+1 with probability 2^-(i+1). *)
  let random_level rng =
    let rec go l =
      if l < max_level && Lfrc_util.Rng.bool rng then go (l + 1) else l
    in
    go 1

  type locals = {
    tm : O.local;
    preds : O.local array;
    start : O.local;
    from : O.local;
    prev : O.local;
    cur : O.local;
    nxt : O.local;
    icur : O.local;
    probe : O.local;
    tmp : O.local;
  }

  let with_locals h f =
    let ctx = h.ctx in
    let ls =
      {
        tm = O.declare ctx;
        preds = Array.init max_level (fun _ -> O.declare ctx);
        start = O.declare ctx;
        from = O.declare ctx;
        prev = O.declare ctx;
        cur = O.declare ctx;
        nxt = O.declare ctx;
        icur = O.declare ctx;
        probe = O.declare ctx;
        tmp = O.declare ctx;
      }
    in
    O.load ctx h.t.tomb ls.tm;
    let r = f ctx h.t ls in
    Array.iter (O.retire ctx) ls.preds;
    List.iter (O.retire ctx)
      [
        ls.tm; ls.start; ls.from; ls.prev; ls.cur; ls.nxt; ls.icur; ls.probe;
        ls.tmp;
      ];
    r

  let contains h key =
    with_locals h (fun ctx t ls ->
        search ctx t key ~tm:ls.tm ~preds:ls.preds ~start:ls.start
          ~from:ls.from ~prev:ls.prev ~cur:ls.cur ~nxt:ls.nxt ~icur:ls.icur
          ~probe:ls.probe ~tmp:ls.tmp)

  (* Link one index node for [node] at level [lvl] (0-based), above
     [below] (the level underneath's index node, null for level 0). The
     new index node is returned through [below] for the next storey.
     False when the allocator fails — the caller abandons the rest of the
     tower (upper levels are best-effort shortcuts). *)
  let link_index ctx t ls ~key ~node ~lvl ~below =
    let rec attempt () =
      (* refresh this level's predecessor, descending from the level
         above's (kept fresh by the enclosing insert) *)
      if lvl = max_level - 1 || O.get ls.preds.(lvl + 1) = null then
        O.set_null ctx ls.from
      else O.load ctx (idown t (O.get ls.preds.(lvl + 1))) ls.from;
      index_walk ctx t key ~entry:t.heads.(lvl) ~from:ls.from ~tm:ls.tm
        ~iprev:ls.preds.(lvl) ~icur:ls.icur ~probe:ls.probe ~tmp:ls.tmp
        ~out_start:ls.start;
      let link =
        if O.get ls.preds.(lvl) = null then t.heads.(lvl)
        else iright t (O.get ls.preds.(lvl))
      in
      (* the walk's [icur] is the successor it read from [link]; using it
         as the CAS expectation keeps the level sorted — a re-read could
         see a racing smaller-key insert *)
      let idx = O.declare ctx in
      if not (O.try_alloc ctx index_layout idx) then begin
        O.retire ctx idx;
        false
      end
      else begin
        O.store ctx (iright t (O.get idx)) (O.get ls.icur);
        O.store ctx (idown t (O.get idx)) (O.get below);
        O.store ctx (inode t (O.get idx)) node;
        let installed =
          O.cas ctx link ~old_ptr:(O.get ls.icur) ~new_ptr:(O.get idx)
        in
        if installed then begin
          O.copy ctx below (O.get idx);
          O.retire ctx idx;
          true
        end
        else begin
          O.retire ctx idx;
          attempt ()
        end
      end
    in
    attempt ()

  (* Unlink every index entry of [node]: walk each level and prune by
     identity (the generic dead-pruning in index_walk does the same job
     lazily; this is the remover's eager pass). *)
  let unlink_index ctx t ls ~node =
    for l = max_level - 1 downto 0 do
      let rec sweep link =
        O.load ctx link ls.icur;
        if O.get ls.icur <> null then begin
          O.load ctx (inode t (O.get ls.icur)) ls.tmp;
          if O.get ls.tmp = node then begin
            O.load ctx (iright t (O.get ls.icur)) ls.tmp;
            if not (O.cas ctx link ~old_ptr:(O.get ls.icur) ~new_ptr:(O.get ls.tmp))
            then sweep link (* interference: retry this link *)
            else sweep link (* idempotent: look again from the same link *)
          end
          else begin
            (* advance if the indexed key is still below ours; identity
               may sit behind equal keys momentarily, so walk through
               equal keys too *)
            let k = dkey t ctx (O.get ls.tmp) in
            if k <= O.read_val ctx (Heap.val_cell t.heap node data_key) then
              sweep (iright t (O.get ls.icur))
            else ()
          end
        end
      in
      sweep t.heads.(l)
    done

  let try_insert h key =
    with_locals h (fun ctx t ls ->
        let rec attempt () =
          if
            search ctx t key ~tm:ls.tm ~preds:ls.preds ~start:ls.start
              ~from:ls.from ~prev:ls.prev ~cur:ls.cur ~nxt:ls.nxt
              ~icur:ls.icur ~probe:ls.probe ~tmp:ls.tmp
          then Ok false
          else begin
            let nd = O.declare ctx in
            if not (O.try_alloc ctx data_layout nd) then begin
              (* Nothing written yet: back out with the set untouched. *)
              O.retire ctx nd;
              Error `Out_of_memory
            end
            else begin
              O.write_val ctx (Heap.val_cell t.heap (O.get nd) data_key) key;
              O.store ctx (dnext t (O.get nd)) (O.get ls.cur);
              let node = O.get nd in
              let installed =
                O.cas ctx (prev_cell t ~prev:ls.prev) ~old_ptr:(O.get ls.cur)
                  ~new_ptr:node
              in
              if not installed then begin
                O.retire ctx nd;
                attempt ()
              end
              else begin
                (* linearized; build the index tower best-effort — an
                   allocator failure mid-tower just leaves it shorter *)
                let height = random_level h.rng in
                let below = O.declare ctx in
                (try
                   for l = 0 to height - 2 do
                     if is_dead ctx t ~tm:ls.tm ~probe:ls.probe node then
                       raise Exit;
                     if not (link_index ctx t ls ~key ~node ~lvl:l ~below)
                     then raise Exit
                   done
                 with Exit -> ());
                (* close the link-vs-remove race: if the node died, make
                   sure no index entry survives *)
                if is_dead ctx t ~tm:ls.tm ~probe:ls.probe node then
                  unlink_index ctx t ls ~node;
                O.retire ctx below;
                O.retire ctx nd;
                Ok true
              end
            end
          end
        in
        attempt ())

  let insert h key =
    match try_insert h key with
    | Ok r -> r
    | Error `Out_of_memory -> raise Heap.Simulated_oom

  let remove h key =
    with_locals h (fun ctx t ls ->
        let rec attempt () =
          if
            not
              (search ctx t key ~tm:ls.tm ~preds:ls.preds ~start:ls.start
                 ~from:ls.from ~prev:ls.prev ~cur:ls.cur ~nxt:ls.nxt
                 ~icur:ls.icur ~probe:ls.probe ~tmp:ls.tmp)
          then false
          else begin
            let node = O.get ls.cur in
            (* unlink from the data level: the linearization *)
            if
              O.dcas ctx (prev_cell t ~prev:ls.prev) (dnext t node)
                ~old0:node ~old1:(O.get ls.nxt) ~new0:(O.get ls.nxt)
                ~new1:(O.get ls.tm)
            then begin
              unlink_index ctx t ls ~node;
              true
            end
            else if is_dead ctx t ~tm:ls.tm ~probe:ls.probe node then false
              (* somebody else removed it first *)
            else attempt ()
          end
        in
        attempt ())

  let to_list h =
    with_locals h (fun ctx t ls ->
        O.load ctx t.data_head ls.cur;
        let rec go acc =
          if O.get ls.cur = null then List.rev acc
          else begin
            let k = dkey t ctx (O.get ls.cur) in
            O.load ctx (dnext t (O.get ls.cur)) ls.nxt;
            let v = O.get ls.nxt in
            if v = O.get ls.tm then List.rev acc (* quiescent: shouldn't happen *)
            else begin
              O.copy ctx ls.cur v;
              go (k :: acc)
            end
          end
        in
        go [])

  let height_histogram h =
    with_locals h (fun ctx t ls ->
        let hist = Array.make max_level 0 in
        (* level 1 = data-only nodes; count index towers per node *)
        let towers = Hashtbl.create 64 in
        for l = 0 to max_level - 1 do
          O.load ctx t.heads.(l) ls.icur;
          let rec walk () =
            if O.get ls.icur <> null then begin
              O.load ctx (inode t (O.get ls.icur)) ls.tmp;
              let node = O.get ls.tmp in
              let cur_h = Option.value ~default:1 (Hashtbl.find_opt towers node) in
              Hashtbl.replace towers node (max cur_h (l + 2));
              O.load ctx (iright t (O.get ls.icur)) ls.icur;
              walk ()
            end
          in
          walk ()
        done;
        O.load ctx t.data_head ls.cur;
        let rec datas () =
          if O.get ls.cur <> null then begin
            let node = O.get ls.cur in
            let height = Option.value ~default:1 (Hashtbl.find_opt towers node) in
            hist.(height - 1) <- hist.(height - 1) + 1;
            O.load ctx (dnext t node) ls.cur;
            datas ()
          end
        in
        datas ();
        hist)

  let destroy t =
    let ctx = O.make_ctx t.env in
    Array.iter
      (fun head ->
        O.store ctx head null;
        Heap.release_root t.heap head)
      t.heads;
    O.store ctx t.data_head null;
    O.store ctx t.tomb null;
    Heap.release_root t.heap t.data_head;
    Heap.release_root t.heap t.tomb;
    O.dispose_ctx ctx

  include Container_intf.With_env (struct
    let name = name

    type nonrec t = t
    type nonrec handle = handle

    let create = create
    let register t = register t
    let unregister = unregister
    let destroy = destroy
  end)
end

module As_set (O : Lfrc_core.Ops_intf.OPS_DCAS) : Container_intf.SET = struct
  include Make (O)

  (* The uniform signature has no room for the seed: eta-expand to the
     deterministic default stream. *)
  let register t = register t
end
