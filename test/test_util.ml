(* Unit and property tests for the utility library: deterministic RNG,
   statistics, and table rendering. *)

module Rng = Lfrc_util.Rng
module Stats = Lfrc_util.Stats
module Table = Lfrc_util.Table

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next a = Rng.next b then incr same
  done;
  checkb "different seeds diverge" true (!same < 4)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_bound_one () =
  let r = Rng.create 7 in
  for _ = 1 to 100 do
    checki "bound 1 is always 0" 0 (Rng.int r 1)
  done

let test_rng_split_independent () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  (* The child stream must not simply replay the parent. *)
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Rng.next parent = Rng.next child then incr equal
  done;
  checkb "split independent" true (!equal < 4)

let test_rng_nonneg () =
  let r = Rng.create 123 in
  for _ = 1 to 10_000 do
    checkb "non-negative" true (Rng.next r >= 0)
  done

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    checkb "unit interval" true (f >= 0.0 && f < 1.0)
  done

let test_rng_uniformity () =
  let r = Rng.create 77 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      checkb "rough uniformity" true
        (Float.abs (Float.of_int c -. 10_000.0) < 800.0))
    buckets

let test_rng_shuffle_permutation () =
  let r = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 Fun.id)
    sorted

let test_rng_pick_member () =
  let r = Rng.create 11 in
  let arr = [| 3; 1; 4; 1; 5 |] in
  for _ = 1 to 100 do
    checkb "member" true (Array.exists (( = ) (Rng.pick r arr)) arr)
  done

(* The splitmix64 stream, pinned: every seeded schedule and workload
   input derives from it, so a shift here must fail here first. *)
let test_rng_stream_pinned () =
  let first4 r = List.init 4 (fun _ -> Rng.next r) in
  let stream = Alcotest.(check (list int)) in
  stream "seed 0"
    [ 2812178212566171247; 3711708288874794846; 2529493934907586327;
      2885323623997114630 ]
    (first4 (Rng.create 0));
  stream "seed 42"
    [ 1720932211098677764; 3795357200955883605; 4359879407727870898;
      1242533817266198696 ]
    (first4 (Rng.create 42));
  stream "seed -7"
    [ 1533972906235141153; 2147330243305597785; 3304354537809254571;
      4562636802253452157 ]
    (first4 (Rng.create (-7)));
  let parent = Rng.create 42 in
  let child = Rng.split parent in
  stream "split child of seed 42"
    [ 2526729418481631046; 3160245005113617744; 1533225871787718299;
      1909064496713179942 ]
    (first4 child);
  stream "seed 42 after the split"
    [ 3795357200955883605; 4359879407727870898; 1242533817266198696;
      3263519356654262073 ]
    (first4 parent)

(* A draw allocates nothing: the scheduler makes one per step. *)
let test_rng_int_allocates_nothing () =
  let r = Rng.create 1 in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (Rng.int r i))
  done;
  let per_call = (Gc.minor_words () -. before) /. Float.of_int n in
  Alcotest.(check (float 0.)) "Rng.int words/call" 0. per_call

(* --- Stats --- *)

let test_mean () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_stddev () =
  check (Alcotest.float 1e-9) "stddev" 1.0 (Stats.stddev [| 1.0; 2.0; 3.0 |])

let test_percentile_endpoints () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.percentile xs 1.0)

let test_percentile_median () =
  check (Alcotest.float 1e-9) "median interpolates" 2.5
    (Stats.percentile [| 1.0; 2.0; 3.0; 4.0 |] 0.5)

let test_summary () =
  let s = Stats.summarize (Array.init 101 Float.of_int) in
  checki "n" 101 s.Stats.n;
  check (Alcotest.float 1e-9) "min" 0.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 100.0 s.Stats.max;
  check (Alcotest.float 1e-9) "p50" 50.0 s.Stats.p50;
  check (Alcotest.float 1e-6) "p99" 99.0 s.Stats.p99

let test_summary_single () =
  let s = Stats.summarize [| 5.0 |] in
  check (Alcotest.float 1e-9) "p50 of singleton" 5.0 s.Stats.p50

let test_histogram () =
  let h = Stats.Histogram.create ~buckets:[| 1.0; 10.0; 100.0 |] in
  List.iter (Stats.Histogram.add h) [ 0.5; 5.0; 50.0; 500.0; 0.1 ];
  checki "count" 5 (Stats.Histogram.count h);
  let counts = List.map snd (Stats.Histogram.bucket_counts h) in
  check (Alcotest.list Alcotest.int) "buckets" [ 2; 1; 1; 1 ] counts

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_rowf t "%d|%s" 10 "xy";
  let s = Table.render t in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "has title" true (contains "== T ==");
  checkb "contains formatted row" true (contains "10" && contains "xy");
  (* row arity is enforced *)
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_csv () =
  let t = Table.create ~title:"T" ~columns:[ "x"; "y" ] in
  Table.add_row t [ "1"; "2" ];
  check Alcotest.string "csv" "x,y\n1,2\n" (Table.csv t)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "bound=1" `Quick test_rng_bound_one;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "non-negative" `Quick test_rng_nonneg;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick member" `Quick test_rng_pick_member;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "int allocates nothing" `Quick
            test_rng_int_allocates_nothing;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile endpoints" `Quick test_percentile_endpoints;
          Alcotest.test_case "percentile median" `Quick test_percentile_median;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary singleton" `Quick test_summary_single;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
    ]
