(** Findings, summaries, rendering — the user-facing half of the checker.

    One {!finding} aggregates every path on which the same defect (same
    {!Absint.violation} grouping key) was observed, keeping one example
    path's op trace as the witness. Severity is [Error] for every
    discipline class — each one is a real protocol violation — and the
    exit code of [lfrc analyze] reflects whether any errors exist, which
    is what lets CI use the checker as a build gate. *)

module Json = Lfrc_util.Json

type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"
let severity_of_cls (_ : Absint.cls) = Error

type finding = {
  cls : Absint.cls;
  severity : severity;
  message : string;  (** message of the first occurrence *)
  paths_hit : int;  (** number of distinct paths exhibiting the defect *)
  witness : string list;
      (** rendered op trace of one offending path, offender marked *)
  witness_decisions : string;  (** decision signature of the witness *)
}

type action_report = {
  action : string;
  paths : int;
  completed : int;
  infeasible : int;
  cut : int;  (** decision-/op-budget truncations *)
  truncated : bool;
      (** the enumerator stopped before exhausting the frontier *)
  findings : finding list;
}

type structure_report = {
  structure : string;
  actions : action_report list;
}

type t = { structures : structure_report list }

let finding_count sel t =
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc a ->
          acc + List.length (List.filter sel a.findings))
        acc s.actions)
    0 t.structures

let errors t = finding_count (fun f -> f.severity = Error) t
let total_findings t = finding_count (fun _ -> true) t

(* Render a witness trace: every op, the offending one marked with ">>".
   [op_index] = -1 marks the end of the path (leak/bypass findings). *)
let render_witness (path : Ir.path) op_index =
  let lines =
    List.mapi
      (fun i op ->
        Printf.sprintf "%s %s"
          (if i = op_index then ">>" else "  ")
          (Ir.op_to_string op))
      path.ops
  in
  lines
  @ [
      Printf.sprintf "%s [%s]"
        (if op_index = -1 then ">>" else "  ")
        (Ir.status_to_string path.status);
    ]

(* Fold the per-path violations of one action into aggregated findings,
   preserving first-occurrence order. [tier] is the structure's claimed
   primitive tier, forwarded to the abstract interpreter; [interference]
   is the cross-action pass the driver closes over the harvested write
   set ({!Absint.check_interference}) — absent for single-action use. *)
let collect_findings ?tier ?(interference = fun _ -> [])
    (paths : Ir.path list) : finding list =
  let order = ref [] in
  let tbl : (string, finding) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (path : Ir.path) ->
      let seen_here : (string, unit) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun (v : Absint.violation) ->
          (match Hashtbl.find_opt tbl v.key with
          | Some f ->
              if not (Hashtbl.mem seen_here v.key) then
                Hashtbl.replace tbl v.key
                  { f with paths_hit = f.paths_hit + 1 }
          | None ->
              order := v.key :: !order;
              Hashtbl.add tbl v.key
                {
                  cls = v.cls;
                  severity = severity_of_cls v.cls;
                  message = v.message;
                  paths_hit = 1;
                  witness = render_witness path v.op_index;
                  witness_decisions = Ir.decision_signature path.decisions;
                });
          Hashtbl.replace seen_here v.key ())
        (Absint.check ?tier path @ interference path))
    paths;
  List.rev_map (fun k -> Hashtbl.find tbl k) !order

let summarize_action ?tier ?interference ~action ~truncated
    (paths : Ir.path list) : action_report =
  let count p = List.length (List.filter p paths) in
  {
    action;
    paths = List.length paths;
    completed = count (fun (p : Ir.path) -> p.status = Ir.Completed);
    infeasible =
      count (fun (p : Ir.path) ->
          match p.status with Ir.Infeasible _ -> true | _ -> false);
    cut = count (fun (p : Ir.path) -> p.status = Ir.Decision_limit);
    truncated;
    findings = collect_findings ?tier ?interference paths;
  }

(* {2 Pretty-printing} *)

let pp ppf (t : t) =
  List.iter
    (fun (s : structure_report) ->
      Format.fprintf ppf "@[<v>%s@," s.structure;
      List.iter
        (fun (a : action_report) ->
          let verdict =
            if a.findings = [] then "ok" else
              Printf.sprintf "%d finding%s" (List.length a.findings)
                (if List.length a.findings = 1 then "" else "s")
          in
          Format.fprintf ppf
            "  %-24s %4d paths (%d completed, %d infeasible, %d cut)%s: %s@,"
            a.action a.paths a.completed a.infeasible a.cut
            (if a.truncated then " [truncated]" else "")
            verdict;
          List.iter
            (fun (f : finding) ->
              Format.fprintf ppf "    %s %s: %s (%d path%s)@,"
                (severity_name f.severity)
                (Absint.cls_name f.cls) f.message f.paths_hit
                (if f.paths_hit = 1 then "" else "s");
              Format.fprintf ppf "      obligation: %s@,"
                (Absint.cls_obligation f.cls);
              List.iter
                (fun line -> Format.fprintf ppf "      %s@," line)
                f.witness)
            a.findings)
        s.actions;
      Format.fprintf ppf "@]")
    t.structures

let summary_line (t : t) =
  let n_structs = List.length t.structures in
  let n_actions =
    List.fold_left (fun acc s -> acc + List.length s.actions) 0 t.structures
  in
  let n_paths =
    List.fold_left
      (fun acc s ->
        List.fold_left (fun acc a -> acc + a.paths) acc s.actions)
      0 t.structures
  in
  Printf.sprintf
    "%d structure%s, %d action%s, %d path%s analyzed: %d error%s"
    n_structs
    (if n_structs = 1 then "" else "s")
    n_actions
    (if n_actions = 1 then "" else "s")
    n_paths
    (if n_paths = 1 then "" else "s")
    (errors t)
    (if errors t = 1 then "" else "s")

let to_string (t : t) =
  Format.asprintf "%a%s\n" pp t (summary_line t)

(* {2 JSON} *)

let json_finding (f : finding) =
  Json.Object
    [
      ("class", Json.String (Absint.cls_name f.cls));
      ("severity", Json.String (severity_name f.severity));
      ("message", Json.String f.message);
      ("paths_hit", Json.Int f.paths_hit);
      ("witness_decisions", Json.String f.witness_decisions);
      ("witness", Json.Array (List.map (fun l -> Json.String l) f.witness));
    ]

let json_action (a : action_report) =
  Json.Object
    [
      ("action", Json.String a.action);
      ("paths", Json.Int a.paths);
      ("completed", Json.Int a.completed);
      ("infeasible", Json.Int a.infeasible);
      ("cut", Json.Int a.cut);
      ("truncated", Json.Bool a.truncated);
      ("findings", Json.Array (List.map json_finding a.findings));
    ]

let to_json (t : t) =
  let structure (s : structure_report) =
    Json.Object
      [
        ("structure", Json.String s.structure);
        ("actions", Json.Array (List.map json_action s.actions));
      ]
  in
  Json.Object
    [
      ("report", Json.String "lfrc-analyze");
      ("structures", Json.Array (List.map structure t.structures));
      ("errors", Json.Int (errors t));
    ]
