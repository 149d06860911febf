type experiment = {
  id : string;
  title : string;
  run : Scenario.config -> Common.result;
}

let all =
  [
    {
      id = "E1";
      title = "LFRC operation overhead vs raw pointer operations";
      run = E1_overhead.run;
    };
    {
      id = "E2";
      title = "Deque contention cost by thread count (simulated)";
      run = E2_throughput.run;
    };
    {
      id = "E3";
      title = "Memory footprint across grow/drain phases";
      run = E3_footprint.run;
    };
    {
      id = "E4";
      title = "Reclamation schemes on one Treiber stack";
      run = E4_reclaim.run;
    };
    {
      id = "E5";
      title = "DCAS substrate ablation";
      run = E5_dcas.run;
    };
    {
      id = "E6";
      title = "Long-chain destroy policies";
      run = E6_destroy.run;
    };
    {
      id = "E7";
      title = "Cyclic garbage and the backup tracer";
      run = E7_cycles.run;
    };
    {
      id = "E8";
      title = "Reclamation pause distributions";
      run = E8_pauses.run;
    };
    {
      id = "E9";
      title = "Progress under a stalled thread (lock-freedom)";
      run = E9_stall.run;
    };
    {
      id = "E10";
      title = "Skip-list index payoff: search cost vs set size";
      run = E10_search.run;
    };
    {
      id = "E11";
      title = "Chaos matrix: faults injected across structures";
      run = E11_chaos.run;
    };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> e.id = id) all

let render ~id ~csv (r : Common.result) =
  if csv then Lfrc_util.Table.csv r.Common.table
  else
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Lfrc_util.Table.render r.Common.table);
    List.iter (fun n -> Printf.bprintf buf "\n%s\n" n) r.Common.notes;
    if not (Lfrc_obs.Metrics.is_empty r.Common.metrics) then
      Printf.bprintf buf "\n[%s metrics]\n%s\n" id
        (Lfrc_util.Json.to_string
           (Lfrc_obs.Metrics.to_json r.Common.metrics));
    if Lfrc_obs.Profile.enabled r.Common.profile then
      Printf.bprintf buf "\n[%s contention]\n%s" id
        (Lfrc_obs.Profile.table r.Common.profile);
    if Lfrc_obs.Blame.enabled r.Common.blame then
      Printf.bprintf buf "\n[%s blame]\n%s" id
        (Lfrc_obs.Blame.report r.Common.blame);
    Buffer.contents buf

let run_ids ?(config = Scenario.default_config) ?(csv = false) ids =
  let selected =
    List.filter_map
      (fun id ->
        match find id with
        | Some e -> Some e
        | None ->
            Printf.eprintf "unknown experiment: %s\n" id;
            None)
      ids
  in
  List.iter
    (fun e ->
      if csv then Printf.printf "# %s: %s\n" e.id e.title
      else Printf.printf "\n[%s] %s\n%!" e.id e.title;
      print_string (render ~id:e.id ~csv (e.run config));
      print_newline ())
    selected;
  List.length selected = List.length ids
