(* Splitmix64 over Int64 (OCaml's native int is 63-bit). The state lives
   in an 8-byte buffer rather than a mutable [int64] field, which would
   box on every write. A draw reads, advances and writes it back in
   inlined code, so its int64s stay unboxed and the draw allocates
   nothing. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_state z =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 z;
  t

let create seed = of_state (mix64 (Int64.add (Int64.of_int seed) golden_gamma))

let[@inline] advance t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  mix64 z

let next t = Int64.to_int (advance t) land max_int
let split t = of_state (advance t)

(* Rejection sampling to avoid modulo bias on pathological bounds. *)
let rec below t bound limit =
  let v = next t in
  if v < limit then v mod bound else below t bound limit

let int t bound =
  assert (bound > 0);
  below t bound (max_int - (max_int mod bound))

let bool t = next t land 1 = 1

let float t = Float.of_int (next t) /. Float.of_int max_int

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
