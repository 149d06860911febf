(* Benchmark suite: five workloads across the simulator and real domains.

     suite.exe [--workload NAME] [--seed N] [--seconds S] [--traced]
               [--quick] [--out FILE]

   The default pass runs each workload with observability off (except
   sim-treiber-obs, whose workload includes it), repeating rounds until
   [--seconds] have elapsed, and reports the median over rounds of every
   end-to-end metric. [--traced] is a separate pass that yields the
   per-layer metrics: one round through [Traced_ops], counts from the
   metrics registry, the heap and the scheduler, self-checks that
   tracing does not perturb the simulated schedule, and the layer-cost
   ladder. Every round checks the structure's contents and the heap.
   Exit code: 0 when every check held, 1 when one failed, 2 on bad
   arguments. *)

module W = Workloads

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  traced : bool;
  quick : bool;
  out : string option;
}

let usage () =
  prerr_endline
    "usage: suite.exe [--workload NAME] [--seed N] [--seconds S] [--traced] \
     [--quick] [--out FILE]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun s -> s.W.name) W.all));
  exit 2

let parse argv =
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: tl ->
        if W.find v = None then usage ();
        go { o with workload = Some v } tl
    | "--seed" :: v :: tl -> go { o with seed = int_arg v } tl
    | "--seconds" :: v :: tl ->
        let s = int_arg v in
        if s < 1 then usage ();
        go { o with seconds = float s } tl
    | "--traced" :: tl -> go { o with traced = true } tl
    | "--quick" :: tl -> go { o with quick = true } tl
    | "--out" :: v :: tl -> go { o with out = Some v } tl
    | _ -> usage ()
  in
  go
    { workload = None; seed = 11; seconds = 10.; traced = false; quick = false; out = None }
    (List.tl (Array.to_list argv))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float a /. float b
let now_s () = float (Span.now ()) /. 1e9

(* --quick: every workload at a tenth of its round, one round. *)
let sized o spec =
  if o.quick then { spec with W.ops_per_thread = spec.W.ops_per_thread / 10 }
  else spec

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  spec : W.spec;
  rounds : W.round list;
  e2e : metric list;
  per_layer : metric list;
  checks : (string * bool) list;
  counts : (string * int) list;
}

let failed_ops rounds =
  List.fold_left
    (fun n (r : W.round) -> if r.error = None then n else n + r.ops)
    0 rounds

let attempted rounds = List.fold_left (fun n (r : W.round) -> n + r.ops) 0 rounds

let correct res =
  failed_ops res.rounds = 0 && List.for_all snd res.checks

(* {2 The end-to-end pass} *)

let min_rounds = 3

(* Round [i] of a run draws its inputs and schedule from its own seed,
   derived from the run's, so a run's median spans many inputs and moves
   little from one run seed to the next. *)
let round_seed seed i = if i = 0 then seed else Hashtbl.hash (seed, i)

let untraced o spec =
  let start = now_s () in
  let setups = if o.quick then 1 else 3 in
  let rec loop acc =
    let t = now_s () in
    let seed = round_seed o.seed (List.length acc) in
    let r = W.Untraced.round ~setups spec ~seed ~obs:(W.own_obs spec) in
    let acc = r :: acc and last = now_s () -. t in
    if o.quick
       || (List.length acc >= min_rounds && now_s () -. start +. last > o.seconds)
    then List.rev acc
    else loop acc
  in
  let rounds = loop [] in
  let med f = median (List.map f rounds) in
  (* Interference from the rest of the host only ever slows a round, for
     seconds at a time: a timing metric is the median of the run's faster
     half of rounds. *)
  let fast_half ~faster f =
    let a = Array.of_list (List.map f rounds) in
    Array.sort (fun x y -> if faster x y then -1 else if faster y x then 1 else 0) a;
    median (Array.to_list (Array.sub a 0 ((Array.length a + 1) / 2)))
  in
  let e2e =
    [
      m "ops_per_s" "1/s" (fast_half ~faster:( > ) (fun r -> float r.W.ops /. r.W.wall_s));
      m "op_latency_p50_us" "us"
        (fast_half ~faster:( < ) (fun r -> float r.W.lat_p50_ns /. 1e3));
      m "alloc_words_per_op" "words" (med (fun r -> r.W.words /. float r.W.ops));
      m "heap_peak_live" "count" (med (fun r -> float r.W.peak_live));
      m "setup_s" "s" (med (fun r -> r.W.setup_s));
      m "error_rate" "ratio" (ratio (failed_ops rounds) (attempted rounds));
    ]
  in
  { spec; rounds; e2e; per_layer = []; checks = []; counts = [] }

(* {2 The traced pass} *)

(* OPS calls reported per layer; the p99 of the rarely called ones is
   left out to keep the per-layer list at most 128 names. *)
let no_p99 = [ "store_alloc"; "dcas_ptr_val"; "write_val"; "cas_val"; "flush" ]

let call_metrics ~ops (ths : Span.thread list) =
  List.concat
    (List.mapi
       (fun k call ->
         let calls = List.fold_left (fun n th -> n + th.Span.calls.(k)) 0 ths in
         let ns = Span.Hist.sorted (List.map (fun th -> th.Span.call_ns.(k)) ths) in
         let steps =
           Span.Hist.sorted (List.map (fun th -> th.Span.call_steps.(k)) ths)
         in
         let p a q = float (Span.percentile a q) in
         let name s = Printf.sprintf "lfrc.%s_%s" call s in
         [ m (name "per_op") "count" (ratio calls ops); m (name "ns_p50") "ns" (p ns 0.5) ]
         @ (if List.mem call no_p99 then [] else [ m (name "ns_p99") "ns" (p ns 0.99) ])
         @ [ m (name "steps_p50") "steps" (p steps 0.5) ])
       (Array.to_list Span.call_names))

let write_file path s = Out_channel.with_open_text path (fun oc -> output_string oc s)

let traced o ~ladder spec =
  let seed = o.seed in
  let base = W.Untraced.round spec ~seed ~obs:(W.own_obs spec) in
  let t1 = W.Traced.round spec ~seed ~obs:(W.counting_obs spec) in
  let ths = Span.collect () in
  (* Under the simulator every count is a function of the seed: a second
     traced round and an untraced round with only the counting registry
     must reproduce them, and another seed must not. *)
  let extra, checks =
    if spec.W.native then ([], [])
    else begin
      let t2 = W.Traced.round spec ~seed ~obs:(W.counting_obs spec) in
      ignore (Span.collect ());
      let m1 = W.Untraced.round spec ~seed ~obs:(W.counting_obs spec) in
      let m2 = W.Untraced.round spec ~seed:(seed + 1) ~obs:(W.counting_obs spec) in
      let c = W.counts t1 in
      ( [ t2; m1; m2 ],
        [
          ("traced counts repeat per seed", c = W.counts t2);
          ("tracing adds no scheduler steps", c = W.counts m1);
          ("another seed changes the counts", c <> W.counts m2);
        ] )
    end
  in
  let toggled = W.Untraced.round spec ~seed ~obs:(W.toggled_obs spec) in
  let rounds = (base :: t1 :: extra) @ [ toggled ] in
  let ops = t1.W.ops in
  let per_op x = ratio x ops in
  let counter k = Option.value ~default:0 (List.assoc_opt k t1.W.counters) in
  let success a f = ratio (counter a - counter f) (counter a) in
  let op_ns = Span.Hist.sorted (List.map (fun th -> th.Span.op_ns) ths) in
  let op_steps = Span.Hist.sorted (List.map (fun th -> th.Span.op_steps) ths) in
  let p a q = float (Span.percentile a q) in
  let self_ns = List.fold_left (fun n th -> n + th.Span.self_ns) 0 ths in
  let live_cells_peak =
    List.fold_left (fun n th -> max n th.Span.live_cells_peak) 0 ths
  in
  let ns_per_op (r : W.round) = r.wall_s *. 1e9 /. float r.ops in
  let obs_on, obs_off = if spec.W.obs then (base, toggled) else (toggled, base) in
  let per_layer =
    [
      m "sched.steps_per_op" "steps" (per_op t1.W.steps);
      m "atomics.cas_per_op" "count" (per_op (counter "dcas.cas_attempts"));
      m "atomics.cas_success_ratio" "ratio"
        (success "dcas.cas_attempts" "dcas.cas_failures");
      m "atomics.dcas_per_op" "count" (per_op (counter "dcas.dcas_attempts"));
      m "atomics.dcas_success_ratio" "ratio"
        (success "dcas.dcas_attempts" "dcas.dcas_failures");
      m "atomics.rmw_per_op" "count" (per_op (counter "dcas.rmw"));
      m "atomics.reads_per_op" "count" (per_op (counter "dcas.reads"));
    ]
    @ call_metrics ~ops ths
    @ [
        m "lfrc.rc_retry_per_op" "count" (per_op (counter "lfrc.rc_retry"));
        m "lfrc.load_retry_per_op" "count" (per_op (counter "lfrc.load_retry"));
        m "simmem.allocs_per_op" "count" (per_op t1.W.allocs);
        m "simmem.frees_per_op" "count" (per_op t1.W.frees);
        m "simmem.live_cells_peak" "count" (float live_cells_peak);
        m "structures.op_ns_p50" "ns" (p op_ns 0.5);
        m "structures.op_ns_p99" "ns" (p op_ns 0.99);
        m "structures.op_steps_p50" "steps" (p op_steps 0.5);
        m "structures.op_steps_p99" "steps" (p op_steps 0.99);
        m "structures.self_ns_per_op" "ns" (per_op self_ns);
        m "structures.empty_ratio" "ratio" (per_op t1.W.empty);
        m "obs.tax_ns_per_op" "ns" (ns_per_op obs_on -. ns_per_op obs_off);
        m "trace.overhead_pct" "%"
          (100. *. ((t1.W.wall_s /. base.W.wall_s) -. 1.));
        m "workload.ops_attempted" "count" (float (attempted rounds));
        m "workload.ops_failed" "count" (float (failed_ops rounds));
      ]
    @ List.concat_map
        (fun (r : Ladder.rung) ->
          [
            m (Ladder.metric_name r.name "ns") "ns" r.ns;
            m (Ladder.metric_name r.name "words") "words" r.words;
          ])
        ladder
  in
  (match o.out with
  | Some out ->
      let file =
        Printf.sprintf "%s.%s.trace.json" (Filename.remove_extension out) spec.W.name
      in
      write_file file
        (Span.chrome_json ~op_names:(W.op_names spec.W.structure) ths);
      Printf.printf "%s: %d spans -> %s\n" spec.W.name (Span.kept_spans ths) file
  | None -> ());
  { spec; rounds; e2e = []; per_layer; checks; counts = W.counts t1 }

(* {2 Output} *)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_metrics ms =
  json_obj
    (List.map
       (fun x ->
         (x.name, json_obj [ ("value", json_float x.value); ("unit", json_string x.unit_) ]))
       ms)

let rc_mode_name = function
  | Lfrc_core.Env.Eager -> "eager"
  | Deferred_rc { epoch } -> Printf.sprintf "deferred-rc(epoch=%d)" epoch
  | Wait_free { weight } -> Printf.sprintf "wait-free(weight=%d)" weight

let workload_json res =
  let s = res.spec in
  let samples f = "[" ^ String.concat ", " (List.map (fun r -> json_float (f r)) res.rounds) ^ "]" in
  json_obj
    [
      ("name", json_string s.W.name);
      ("why", json_string s.W.why);
      ("substrate", json_string (if s.W.native then "striped-lock on 2 domains" else "atomic-step simulator"));
      ("rc_mode", json_string (rc_mode_name s.W.rc_mode));
      ("obs", json_string (if s.W.obs then "metrics+profile+blame" else "off"));
      ("threads", string_of_int s.W.threads);
      ("ops_per_thread_per_round", string_of_int s.W.ops_per_thread);
      ("prefill", string_of_int s.W.prefill);
      ("rounds", string_of_int (List.length res.rounds));
      ("correct", string_of_bool (correct res));
      ("attempted", string_of_int (attempted res.rounds));
      ("failed", string_of_int (failed_ops res.rounds));
      ( "errors",
        "["
        ^ String.concat ", "
            (List.filter_map (fun (r : W.round) -> Option.map json_string r.error) res.rounds)
        ^ "]" );
      ("end_to_end", json_metrics res.e2e);
      ("per_layer", json_metrics res.per_layer);
      ( "round_samples",
        json_obj
          [
            ("ops_per_s", samples (fun r -> float r.W.ops /. r.W.wall_s));
            ("op_latency_p50_us", samples (fun r -> float r.W.lat_p50_ns /. 1e3));
            ("alloc_words_per_op", samples (fun r -> r.W.words /. float r.W.ops));
            ("heap_peak_live", samples (fun r -> float r.W.peak_live));
            ("setup_s", samples (fun r -> r.W.setup_s));
          ] );
      ("checks", json_obj (List.map (fun (k, ok) -> (k, string_of_bool ok)) res.checks));
      ("counts", json_obj (List.map (fun (k, v) -> (k, string_of_int v)) res.counts));
    ]

let document o results =
  json_obj
    [
      ("benchmark", json_string "lfrc-perfbench");
      ( "meta",
        json_obj
          [
            ("nproc", string_of_int (Domain.recommended_domain_count ()));
            ("ocaml", json_string Sys.ocaml_version);
            ("seed", string_of_int o.seed);
            ("seconds", json_float o.seconds);
            ("traced", string_of_bool o.traced);
            ("quick", string_of_bool o.quick);
            ("clock", json_string "CLOCK_MONOTONIC via bechamel.monotonic_clock, ns");
          ] );
      ("workloads", "[\n" ^ String.concat ",\n" (List.map workload_json results) ^ "\n]");
    ]
  ^ "\n"

let print_result res =
  let name = res.spec.W.name in
  List.iter
    (fun x -> Printf.printf "%s %s %.10g %s\n" name x.name x.value x.unit_)
    (res.e2e @ res.per_layer);
  List.iter
    (fun (k, ok) -> Printf.printf "%s check %s: %s\n" name k (if ok then "ok" else "FAILED"))
    res.checks;
  if res.checks <> [] then
    Printf.printf "%s counts md5 %s\n" name
      (Digest.to_hex
         (Digest.string
            (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) res.counts))));
  List.iter
    (fun (r : W.round) ->
      Option.iter (fun e -> Printf.printf "%s FAILED: %s\n" name e) r.error)
    res.rounds;
  flush stdout

let () =
  let o = parse Sys.argv in
  let specs =
    List.filter (fun s -> o.workload = None || o.workload = Some s.W.name) W.all
    |> List.map (sized o)
  in
  let ladder = if o.traced then Ladder.run ~quick:o.quick else [] in
  let results =
    List.map
      (fun spec ->
        let res = if o.traced then traced o ~ladder spec else untraced o spec in
        print_result res;
        res)
      specs
  in
  Option.iter (fun f -> write_file f (document o results)) o.out;
  let bad = List.filter (fun r -> not (correct r)) results in
  if bad <> [] then begin
    List.iter
      (fun r ->
        Printf.printf "FAILED %s: replay with --workload %s --seed %d%s\n"
          r.spec.W.name r.spec.W.name o.seed
          (if o.quick then " --quick" else ""))
      bad;
    exit 1
  end
