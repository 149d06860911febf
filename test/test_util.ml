(* Unit and property tests for the utility library: deterministic RNG,
   statistics, table rendering, and the int table behind the per-thread
   count tables. *)

module Rng = Lfrc_util.Rng
module Stats = Lfrc_util.Stats
module Table = Lfrc_util.Table
module Int_table = Lfrc_util.Int_table

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

(* --- Int_table --- *)

(* Every entry, in entry order, as (key, value) pairs. *)
let entries t =
  List.init (Int_table.length t) (fun i ->
      (Int_table.key t i, Int_table.value t i))

(* The table against a [Hashtbl] model under the same rule (0 is absent,
   a value reaching 0 removes its entry), over random add / set / take /
   find / clear. Keys mix a small range, so nets cancel and entries come
   and go, with keys past 10^9, as cell ids grow; rare clears let the
   table grow through several doublings in between. *)
let test_int_table_model () =
  let r = Rng.create 7 in
  let t = Int_table.create 0 and m = Hashtbl.create 16 in
  let find_m k = Option.value ~default:0 (Hashtbl.find_opt m k) in
  let set_m k v = if v = 0 then Hashtbl.remove m k else Hashtbl.replace m k v in
  let key () =
    match Rng.int r 3 with
    | 0 -> Rng.int r 16
    | 1 -> 1_000_000_000 + Rng.int r 3000
    | _ -> Rng.int r 3000 - 100
  in
  let agree () =
    let es = entries t in
    checki "entries = model size" (Hashtbl.length m) (List.length es);
    List.iter (fun (k, v) -> checki "entry = model value" (find_m k) v) es;
    checki "entries are distinct" (List.length es)
      (List.length (List.sort_uniq compare (List.map fst es)))
  in
  let max_len = ref 0 in
  for step = 1 to 60_000 do
    let k = key () in
    (match Rng.int r 100 with
    | n when n < 45 ->
        let d = Rng.int r 7 - 3 in
        Int_table.add t k d;
        set_m k (find_m k + d)
    | n when n < 65 ->
        let v = Rng.int r 5 - 2 in
        Int_table.set t k v;
        set_m k v
    | n when n < 80 ->
        checki "take" (find_m k) (Int_table.take t k);
        Hashtbl.remove m k
    | _ ->
        checki "find" (find_m k) (Int_table.find t k);
        checkb "mem" (Hashtbl.mem m k) (Int_table.mem t k));
    if Rng.int r 5000 = 0 then begin
      Int_table.clear t;
      Hashtbl.reset m
    end;
    checki "length" (Hashtbl.length m) (Int_table.length t);
    max_len := max !max_len (Int_table.length t);
    if step mod 997 = 0 then agree ()
  done;
  agree ();
  checkb "grew past several doublings" true (!max_len > 1000)

(* Sums drain back to nothing: every entry removed as its value reaches
   0, after which the index finds nothing it should not. *)
let test_int_table_drains () =
  let t = Int_table.create 4 in
  let keys = List.init 5000 (fun i -> 1_000_000_007 * (i + 1)) in
  List.iter (fun k -> Int_table.add t k 2) keys;
  checki "all present" 5000 (Int_table.length t);
  List.iter (fun k -> checki "value" 2 (Int_table.find t k)) keys;
  List.iter (fun k -> Int_table.add t k (-1)) keys;
  List.iter (fun k -> Int_table.add t k (-1)) keys;
  checki "empty once every sum is 0" 0 (Int_table.length t);
  List.iter (fun k -> checkb "gone" false (Int_table.mem t k)) keys;
  Int_table.set t 42 5;
  Alcotest.(check (list (pair int int))) "reusable" [ (42, 5) ] (entries t);
  Alcotest.check_raises "past the last entry"
    (Invalid_argument "Int_table: no such entry") (fun () ->
      ignore (Int_table.key t 1))

(* Once grown, updates and lookups allocate nothing: the deferred park
   and the weight moves do one of each per count adjustment. *)
let test_int_table_allocates_nothing () =
  let t = Int_table.create 128 in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    let k = 1_000_000_000 + (i land 63) in
    Int_table.add t k 1;
    Int_table.set t (k + 64) (Int_table.find t k);
    ignore (Sys.opaque_identity (Int_table.take t (k + 64)));
    if i land 255 = 0 then Int_table.clear t
  done;
  let per_call = (Gc.minor_words () -. before) /. Float.of_int n in
  Alcotest.(check (float 0.)) "Int_table words/call" 0. per_call

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
      ( "int-table",
        [
          Alcotest.test_case "model vs Hashtbl" `Quick test_int_table_model;
          Alcotest.test_case "drains to empty" `Quick test_int_table_drains;
          Alcotest.test_case "allocates nothing once grown" `Quick
            test_int_table_allocates_nothing;
        ] );
    ]
