(* Tests for the observability layer: the metrics registry, the event
   tracer, and their wiring into the LFRC environment. *)

module Metrics = Lfrc_obs.Metrics
module Tracer = Lfrc_obs.Tracer
module Stats = Lfrc_util.Stats
module Json = Lfrc_util.Json
module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Env = Lfrc_core.Env
module Lfrc = Lfrc_core.Lfrc

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let is_infix ~affix s =
  let la = String.length affix and ls = String.length s in
  let rec go i = i + la <= ls && (String.sub s i la = affix || go (i + 1)) in
  la = 0 || go 0

let close eps a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.3f ~ %.3f" a b)
    true
    (Float.abs (a -. b) <= eps)

(* --- Metrics registry --- *)

let test_counter_exact () =
  let m = Metrics.create () in
  for _ = 1 to 3 do
    Metrics.incr m (Metrics.key "a.x")
  done;
  Metrics.add m (Metrics.key "a.x") 5;
  Metrics.incr m (Metrics.key "b.y");
  let s = Metrics.snapshot m in
  checki "a.x" 8 (Metrics.counter_value s "a.x");
  checki "b.y" 1 (Metrics.counter_value s "b.y");
  checki "absent" 0 (Metrics.counter_value s "c.z")

let test_gauge_high_water () =
  let m = Metrics.create () in
  Metrics.set_gauge m (Metrics.key "g") 5;
  Metrics.set_gauge m (Metrics.key "g") 2;
  let s = Metrics.snapshot m in
  checkb "last 2, max 5" true (Metrics.gauge_value s "g" = Some (2, 5))

let test_disabled_records_nothing () =
  let m = Metrics.disabled in
  checkb "not enabled" false (Metrics.enabled m);
  Metrics.incr m (Metrics.key "a");
  Metrics.add m (Metrics.key "a") 10;
  Metrics.set_gauge m (Metrics.key "g") 1;
  Metrics.observe m (Metrics.key "h") 1;
  checkb "snapshot empty" true (Metrics.is_empty (Metrics.snapshot m))

let test_merge () =
  let m1 = Metrics.create () and m2 = Metrics.create () in
  Metrics.add m1 (Metrics.key "c") 3;
  Metrics.add m2 (Metrics.key "c") 4;
  Metrics.add m2 (Metrics.key "only2") 1;
  Metrics.set_gauge m1 (Metrics.key "g") 7;
  Metrics.set_gauge m2 (Metrics.key "g") 2;
  Metrics.observe m1 (Metrics.key "h") 1;
  Metrics.observe m1 (Metrics.key "h") 5000;
  Metrics.observe m2 (Metrics.key "h") 3;
  Metrics.observe m2 (Metrics.key "h") (-2);
  let s = Metrics.merge (Metrics.snapshot m1) (Metrics.snapshot m2) in
  checki "counters add" 7 (Metrics.counter_value s "c");
  checki "disjoint kept" 1 (Metrics.counter_value s "only2");
  (match Metrics.gauge_value s "g" with
  | Some (_, mx) -> checki "gauge max of maxima" 7 mx
  | None -> Alcotest.fail "gauge lost");
  match List.assoc_opt "h" s.Metrics.samples with
  | Some arr ->
      Alcotest.(check (list (float 0.)))
        "samples merged in order" [ -2.; 1.; 3.; 5000. ] (Array.to_list arr)
  | None -> Alcotest.fail "histogram lost"

let test_quantile_sanity () =
  let xs = Array.init 101 (fun i -> Float.of_int i) in
  close 0.5 50.0 (Stats.quantile xs 0.5);
  close 1.0 99.0 (Stats.quantile xs 0.99);
  close 0.001 0.0 (Stats.quantile xs 0.0);
  close 0.001 100.0 (Stats.quantile xs 1.0);
  (* merge: pooled n and size-weighted quantiles stay in range *)
  let s1 = Stats.summarize (Array.init 50 (fun i -> Float.of_int i)) in
  let s2 = Stats.summarize (Array.init 50 (fun i -> Float.of_int (i + 50))) in
  let m = Stats.merge s1 s2 in
  checki "pooled n" 100 m.Stats.n;
  close 0.5 49.5 m.Stats.mean;
  checkb "p50 within range" true (m.Stats.p50 > 0.0 && m.Stats.p50 < 100.0)

let test_metrics_json_shape () =
  let m = Metrics.create () in
  Metrics.incr m (Metrics.key "dcas.reads");
  Metrics.set_gauge m (Metrics.key "heap.live") 3;
  Metrics.observe m (Metrics.key "pause") 3;
  let j = Json.to_string (Metrics.to_json (Metrics.snapshot m)) in
  List.iter
    (fun frag ->
      checkb (frag ^ " present") true
        (is_infix ~affix:frag j))
    [
      "\"counters\"";
      "\"dcas.reads\":1";
      "\"gauges\"";
      "\"heap.live\"";
      "\"last\":3";
      "\"histograms\"";
      "\"p50\"";
    ]

(* --- interned keys --- *)

let test_key_interning () =
  let k = Metrics.key "keys.same" in
  checkb "same name, same key" true (k = Metrics.key "keys.same");
  checkb "other name, other key" true (k <> Metrics.key "keys.other");
  Alcotest.(check string) "name round-trips" "keys.same" (Metrics.key_name k);
  let m1 = Metrics.create () and m2 = Metrics.create () in
  Metrics.incr m1 k;
  Metrics.add m2 (Metrics.key "keys.same") 2;
  checki "first registry" 1
    (Metrics.counter_value (Metrics.snapshot m1) "keys.same");
  checki "second registry" 2
    (Metrics.counter_value (Metrics.snapshot m2) "keys.same")

let test_zero_add_present () =
  let m = Metrics.create () in
  Metrics.add m (Metrics.key "keys.zero") 0;
  checkb "series present" true
    (List.mem ("keys.zero", 0) (Metrics.snapshot m).Metrics.counters);
  checki "live read" 0 (Metrics.count m (Metrics.key "keys.zero"))

let test_reset_drops_series () =
  let m = Metrics.create () in
  let k = Metrics.key "keys.reset" in
  Metrics.add m k 3;
  Metrics.set_gauge m k 4;
  Metrics.observe m k 5;
  Metrics.reset m;
  checkb "snapshot empty" true (Metrics.is_empty (Metrics.snapshot m));
  checki "live read" 0 (Metrics.count m k);
  Metrics.incr m k;
  checki "counts again from zero" 1
    (Metrics.counter_value (Metrics.snapshot m) "keys.reset")

(* Samples in [0, 4096) are kept as bucket counts, the rest as values; a
   snapshot returns exactly the samples observed, sorted. *)
let test_histogram_keeps_samples () =
  let m = Metrics.create () in
  let k = Metrics.key "keys.hist" in
  let xs =
    [ 3; 0; -40; 3; 5000; -1; 0; 1_000_000_000; 4095; 4096; 7; 2 ]
  in
  List.iter (Metrics.observe m k) xs;
  match List.assoc_opt "keys.hist" (Metrics.snapshot m).Metrics.samples with
  | Some got ->
      Alcotest.(check (list (float 0.)))
        "sorted samples"
        (List.map float (List.sort compare xs))
        (Array.to_list got)
  | None -> Alcotest.fail "histogram missing"

(* Two domains bump one shared key; midway each interns and bumps fresh
   keys past the registry's current slots, so the slot array grows while
   the other domain is adding. No add may be lost. *)
let test_counters_exact_across_domains () =
  let m = Metrics.create () in
  let shared = Metrics.key "keys.shared" in
  let n = 100_000 and fresh = 200 in
  let worker d () =
    for i = 1 to n do
      Metrics.incr m shared;
      if i = n / 2 then
        for j = 1 to fresh do
          Metrics.incr m (Metrics.key (Printf.sprintf "keys.d%d.%d" d j))
        done
    done
  in
  let other = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join other;
  let s = Metrics.snapshot m in
  checki "shared total exact" (2 * n) (Metrics.counter_value s "keys.shared");
  checki "live read agrees" (2 * n) (Metrics.count m shared);
  for d = 0 to 1 do
    for j = 1 to fresh do
      checki "fresh key counted once" 1
        (Metrics.counter_value s (Printf.sprintf "keys.d%d.%d" d j))
    done
  done

(* Two domains observe into one shared histogram; each sample below 4096
   bumps an atomic bucket without the lock. Each domain's samples climb
   past the buckets grown so far, so the buckets grow while the other
   domain is bumping; a few out-of-range samples take the lock. No
   sample may be lost. *)
let test_histogram_exact_across_domains () =
  let m = Metrics.create () in
  let k = Metrics.key "keys.hist.shared" in
  let n = 50_000 in
  let sample i = if i mod 1000 = 0 then 5000 + i else i mod 4096 in
  let worker () =
    for i = 1 to n do
      Metrics.observe m k (sample i)
    done
  in
  let other = Domain.spawn worker in
  worker ();
  Domain.join other;
  let samples = (Metrics.snapshot m).Metrics.samples in
  match List.assoc_opt "keys.hist.shared" samples with
  | Some got ->
      let expected =
        List.init n (fun i -> sample (i + 1))
        |> List.concat_map (fun v -> [ v; v ])
        |> List.sort compare |> List.map float
      in
      Alcotest.(check (list (float 0.)))
        "every sample kept, sorted" expected (Array.to_list got)
  | None -> Alcotest.fail "histogram missing"

(* Minor words per call of [f], over 10,000 calls. *)
let words_per_call f =
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. Float.of_int n

(* An enabled registry's counters are atomic slots: bumping one
   allocates nothing. *)
let test_counter_allocates_nothing () =
  let m = Metrics.create () in
  let k = Metrics.key "keys.alloc" in
  Metrics.incr m k;
  Alcotest.(check (float 0.))
    "incr words/op" 0.
    (words_per_call (fun () -> Metrics.incr m k));
  Alcotest.(check (float 0.))
    "add words/op" 0.
    (words_per_call (fun () -> Metrics.add m k 3))

(* A histogram sample in bucket range bumps an atomic cell: once the
   bucket exists, observing allocates nothing. *)
let test_observe_allocates_nothing () =
  let m = Metrics.create () in
  let k = Metrics.key "keys.hist.alloc" in
  Metrics.observe m k 100;
  Alcotest.(check (float 0.))
    "observe words/op" 0.
    (words_per_call (fun () -> Metrics.observe m k 63))

(* --- wiring: a scripted single-threaded LFRC sequence has exact counts --- *)

let test_env_wiring_exact () =
  let layout = Layout.make ~name:"obs-node" ~n_ptrs:1 ~n_vals:0 in
  let m = Metrics.create () in
  let heap = Heap.create ~name:"obs" () in
  let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ~metrics:m heap in
  let root = Heap.root heap ~name:"r" () in
  let p = Lfrc.alloc env layout in
  Lfrc.store_alloc env ~dst:root p;
  let dest = ref Heap.null in
  Lfrc.load env ~src:root ~dest;
  Lfrc.destroy env !dest;
  Lfrc.store env ~dst:root Heap.null;
  Heap.release_root heap root;
  let s = Metrics.snapshot m in
  checki "one alloc" 1 (Metrics.counter_value s "lfrc.alloc");
  checki "heap alloc" 1 (Metrics.counter_value s "heap.allocs");
  checki "one load" 1 (Metrics.counter_value s "lfrc.load");
  checki "one store" 1 (Metrics.counter_value s "lfrc.store");
  checki "one free" 1 (Metrics.counter_value s "lfrc.frees");
  checki "heap free" 1 (Metrics.counter_value s "heap.frees");
  (* single-threaded: no retries anywhere *)
  checki "no load retries" 0 (Metrics.counter_value s "lfrc.load_retry");
  match Metrics.gauge_value s "heap.live" with
  | Some (last, mx) ->
      checki "live back to 0" 0 last;
      checki "live peaked at 1" 1 mx
  | None -> Alcotest.fail "heap.live gauge missing"

let test_disabled_metrics_zero_cost_path () =
  (* The same sequence against the disabled registry records nothing. *)
  let layout = Layout.make ~name:"obs-node2" ~n_ptrs:1 ~n_vals:0 in
  let heap = Heap.create ~name:"obs2" () in
  let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
  let p = Lfrc.alloc env layout in
  Lfrc.destroy env p;
  checkb "default env records nothing" true
    (Metrics.is_empty (Metrics.snapshot (Env.metrics env)))

(* --- Tracer --- *)

let test_ring_wrap () =
  let t = Tracer.create ~capacity:8 in
  for i = 1 to 20 do
    Tracer.emit t ~arg:i Tracer.Instant "ev"
  done;
  let evs = Tracer.events t in
  checki "retained = capacity" 8 (List.length evs);
  checki "recorded = all" 20 (Tracer.recorded t);
  checki "dropped = excess" 12 (Tracer.dropped t);
  (* oldest first: the survivors are events 13..20 *)
  checki "oldest survivor" 13 (List.hd evs).Tracer.arg;
  checki "newest survivor" 20
    (List.nth evs 7).Tracer.arg

let test_disabled_tracer () =
  let t = Tracer.disabled in
  checkb "not enabled" false (Tracer.enabled t);
  Tracer.emit t Tracer.Begin "x";
  checki "no events" 0 (List.length (Tracer.events t));
  checki "nothing recorded" 0 (Tracer.recorded t);
  checkb "capacity<=0 is disabled" false
    (Tracer.enabled (Tracer.create ~capacity:0))

let test_chrome_json_well_formed () =
  let t = Tracer.create ~capacity:64 in
  Tracer.emit t Tracer.Begin "lfrc.load";
  Tracer.emit t Tracer.Retry "dcas.dcas_attempts";
  Tracer.emit t Tracer.End "lfrc.load";
  Tracer.emit t ~arg:42 Tracer.Free "free";
  let j = Json.to_string (Tracer.to_chrome_json t) in
  let count affix =
    let n = ref 0 in
    let la = String.length affix in
    for i = 0 to String.length j - la do
      if String.sub j i la = affix then incr n
    done;
    !n
  in
  checkb "object" true
    (String.length j > 2 && j.[0] = '{' && j.[String.length j - 1] = '}');
  checkb "traceEvents key" true
    (is_infix ~affix:"\"traceEvents\"" j);
  (* Begin+End pair into one "X" complete record; Retry and Free export
     as instants. *)
  checki "three records" 3 (count "\"ph\"");
  checki "one complete span" 1 (count "\"ph\":\"X\"");
  checki "instants" 2 (count "\"ph\":\"i\"");
  checki "balanced braces" (count "{") (count "}");
  checki "balanced brackets" (count "[") (count "]")

let test_timeline_lines () =
  let t = Tracer.create ~capacity:16 in
  Tracer.emit t Tracer.Begin "op";
  Tracer.emit t Tracer.End "op";
  let lines =
    String.split_on_char '\n' (String.trim (Tracer.to_timeline t))
  in
  (* one line per event plus the accounting footer *)
  checki "event lines + footer" 3 (List.length lines);
  let footer = List.nth lines 2 in
  checkb "footer has drop count" true
    (is_infix ~affix:"2 retained, 0 dropped" footer)

let test_orphaned_begin_degrades () =
  (* Begin A, Begin B (B's End lost), End A: B must degrade to an
     "op-open" instant and A must still pair into a complete span. *)
  let t = Tracer.create ~capacity:16 in
  Tracer.emit t Tracer.Begin "A";
  Tracer.emit t Tracer.Begin "B";
  Tracer.emit t Tracer.End "A";
  let j = Json.to_string (Tracer.to_chrome_json t) in
  let count affix =
    let n = ref 0 in
    let la = String.length affix in
    for i = 0 to String.length j - la do
      if String.sub j i la = affix then incr n
    done;
    !n
  in
  checki "A pairs into a complete span" 1 (count "\"ph\":\"X\"");
  checki "B degrades to an instant" 1 (count "\"ph\":\"i\"");
  checki "B is marked op-open" 1 (count "\"op-open\"")

(* The traced steps are exercised under the scheduler in test_harness's
   experiment runs; here we only need emit to be harmless outside one. *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter exact" `Quick test_counter_exact;
          Alcotest.test_case "gauge high-water" `Quick test_gauge_high_water;
          Alcotest.test_case "disabled" `Quick test_disabled_records_nothing;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "quantiles" `Quick test_quantile_sanity;
          Alcotest.test_case "json shape" `Quick test_metrics_json_shape;
          Alcotest.test_case "key interning" `Quick test_key_interning;
          Alcotest.test_case "zero add present" `Quick test_zero_add_present;
          Alcotest.test_case "reset drops series" `Quick
            test_reset_drops_series;
          Alcotest.test_case "histogram keeps samples" `Quick
            test_histogram_keeps_samples;
          Alcotest.test_case "exact across domains" `Quick
            test_counters_exact_across_domains;
          Alcotest.test_case "histogram exact across domains" `Quick
            test_histogram_exact_across_domains;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "counter incr and add" `Quick
            test_counter_allocates_nothing;
          Alcotest.test_case "histogram observe" `Quick
            test_observe_allocates_nothing;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "scripted counts exact" `Quick
            test_env_wiring_exact;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_metrics_zero_cost_path;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
          Alcotest.test_case "disabled" `Quick test_disabled_tracer;
          Alcotest.test_case "chrome json" `Quick test_chrome_json_well_formed;
          Alcotest.test_case "orphaned begin" `Quick
            test_orphaned_begin_degrades;
          Alcotest.test_case "timeline" `Quick test_timeline_lines;
        ] );
    ]
