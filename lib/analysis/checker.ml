(** The driver: generational path enumeration over a structure action,
    feeding each recorded path to the abstract interpreter.

    Enumeration is the classic generate-and-flip scheme: run the action
    with a forced prefix of oracle choices (empty at first — the all-
    defaults path), then, for every decision at index [i >= bound] the run
    actually took, queue one child per alternative choice with the prefix
    [taken[0..i-1] @ [alt]] and bound [i+1]. The bound guarantees each
    child only flips decisions *after* the ones it inherited, so no
    execution is generated twice; a signature set catches the residual
    duplicates that arise when a forced choice gets clamped to a smaller
    arity. Termination: flipping any decision costs one unit of a finite
    budget ([max_paths], [max_decisions] per path), and the all-defaults
    suffix always terminates because defaults end every retry loop.

    Because the recording OPS instance never mutates the analysis heap,
    re-running an action for each path needs no state reset — setup ran
    once, muted, and every path starts from the same (never-changing)
    concrete heap. *)

module Env = Lfrc_core.Env
module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Catalog = Lfrc_structures.Catalog

type limits = { max_paths : int; max_decisions : int }

let default_limits = { max_paths = 400; max_decisions = 48 }

let enumerate ~limits r (action : unit -> unit) =
  Recorder.reset_pool r;
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 97 in
  let frontier : (int array * int) Queue.t = Queue.create () in
  Queue.add ([||], 0) frontier;
  let paths = ref [] in
  let n = ref 0 in
  while (not (Queue.is_empty frontier)) && !n < limits.max_paths do
    let forced, bound = Queue.pop frontier in
    Recorder.start_path r ~forced;
    let status =
      match action () with
      | () -> Ir.Completed
      | exception Recorder.Path_limit -> Ir.Decision_limit
      | exception Lfrc_core.Lfrc.Symbolic_bypass op -> Ir.Bypass op
      | exception e -> Ir.Infeasible (Printexc.to_string e)
    in
    let path = Recorder.finish_path r status in
    let sg = Ir.decision_signature path.decisions in
    if not (Hashtbl.mem seen sg) then begin
      Hashtbl.add seen sg ();
      incr n;
      paths := path :: !paths;
      let decs = Array.of_list path.decisions in
      let taken j =
        let _, _, t = decs.(j) in
        t
      in
      for i = bound to Array.length decs - 1 do
        let _, arity, t = decs.(i) in
        for c = 0 to arity - 1 do
          if c <> t then
            Queue.add
              (Array.init (i + 1) (fun j -> if j = i then c else taken j), i + 1)
              frontier
        done
      done
    end
  done;
  let truncated = not (Queue.is_empty frontier) in
  (List.rev !paths, truncated)

type actions_fn =
  Catalog.dcas_ops -> Env.t -> (string * (unit -> unit)) list

(* Analyze one structure given its action builder. Used both for catalog
   entries and for the test suite's deliberately broken fixtures. The
   builder always receives the full recording module (the recorder
   implements the DCAS tier); [tier] is the *claimed* tier the abstract
   interpreter holds the recorded traces to — a fixture claiming [Cas]
   while issuing a DCAS is how the tier obligation is tested. *)
let analyze_actions ?(limits = default_limits) ?tier ~name (mk : actions_fn)
    : Report.structure_report =
  let heap = Heap.create ~name:("analysis:" ^ name) () in
  let env = Env.create ~symbolic:true heap in
  let r = Recorder.create ~max_decisions:limits.max_decisions () in
  let module O = Record_ops.Make (struct
    let r = r
  end) in
  let actions =
    Recorder.muted r (fun () ->
        mk (module O : Lfrc_core.Ops_intf.OPS_DCAS) env)
  in
  let enumerated =
    List.map
      (fun (aname, act) ->
        let paths, truncated = enumerate ~limits r act in
        (aname, paths, truncated))
      actions
  in
  (* The interference pass needs to know which object a recorded cell
     belongs to; the recorder heap never frees, so the mapping built
     after enumeration covers every cell any path ever touched. *)
  let owner =
    let tbl : (int, int) Hashtbl.t = Hashtbl.create 97 in
    for p = 1 to Heap.high_water_id heap do
      Heap.iter_cells heap p (fun ~kind:_ ~index:_ cell ->
          Hashtbl.replace tbl (Cell.id cell) p)
    done;
    fun cid -> Hashtbl.find_opt tbl cid
  in
  (* Harvest one interfering published plain write per cell, across every
     completed path of every action (any action runs concurrently with
     any other — and with a second instance of itself). Infeasible and
     budget-cut prefixes are excluded: their writes may not correspond to
     a realizable execution. *)
  let interfering : (int, string) Hashtbl.t = Hashtbl.create 17 in
  List.iter
    (fun (aname, paths, _) ->
      List.iter
        (fun (path : Ir.path) ->
          if path.status = Ir.Completed then
            List.iter
              (fun (cell, desc) ->
                if not (Hashtbl.mem interfering cell) then
                  Hashtbl.add interfering cell (aname ^ ": " ^ desc))
              (Absint.published_writes ~owner path))
        paths)
    enumerated;
  let interference = Absint.check_interference ~owner ~writes:interfering in
  let action_reports =
    List.map
      (fun (aname, paths, truncated) ->
        Report.summarize_action ?tier ~interference ~action:aname ~truncated
          paths)
      enumerated
  in
  { Report.structure = name; actions = action_reports }

let analyze_entry ?limits (e : Catalog.entry) : Report.structure_report =
  (* [actions_over] re-packs the recording module at [OPS_CAS] for
     Cas-tier entries, so their builders cannot even name [dcas]; the
     tier obligation passed to the interpreter is then a cross-check,
     not the only line of defense. *)
  analyze_actions ?limits ~tier:e.tier ~name:e.name
    (fun om env -> Catalog.actions_over om e env)

let analyze_all ?limits ?tier () : Report.t =
  let entries =
    match tier with
    | None -> Catalog.entries
    | Some t -> List.filter (fun e -> Catalog.tier e = t) Catalog.entries
  in
  { Report.structures = List.map (fun e -> analyze_entry ?limits e) entries }

let analyze_structure ?limits name : (Report.t, string) result =
  match Catalog.find name with
  | None ->
      Error
        (Printf.sprintf "unknown structure %S (expected one of: %s)" name
           (String.concat ", " (Catalog.names ())))
  | Some e -> Ok { Report.structures = [ analyze_entry ?limits e ] }
