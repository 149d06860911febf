(* Entries live in dense arrays ([keys], [vals]); [index] is an
   open-addressing table of power-of-two size, at most half full, holding
   entry + 1 at each occupied position (0 = empty). Probing is linear from
   a Fibonacci hash of the key. A removal closes its hole by shifting the
   probe run back (no tombstones) and moves the last entry into the freed
   dense position, so [at] records each entry's index position for both
   moves and for an O(entries) [clear]. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable at : int array;
  mutable len : int;
  mutable index : int array;
  mutable shift : int;  (* 63 - log2 (Array.length index) *)
}

(* Fibonacci hashing: [golden] is 2^63 / phi, made odd, written as the
   negative int with the same 63-bit pattern. The top bits of the
   wrapped product [k * golden] spread consecutive keys evenly across
   the whole index. *)
let golden = -0x30E44323405AC3FF

let home t k = (k * golden) lsr t.shift
let next t i = (i + 1) land (Array.length t.index - 1)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let create n =
  let size = ref 8 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  let cap = !size / 2 in
  {
    keys = Array.make cap 0;
    vals = Array.make cap 0;
    at = Array.make cap 0;
    len = 0;
    index = Array.make !size 0;
    shift = 63 - log2 !size;
  }

let length t = t.len

let rec probe t k i =
  let e = t.index.(i) in
  if e = 0 then -1
  else if t.keys.(e - 1) = k then e - 1
  else probe t k (next t i)

let entry t k = probe t k (home t k)

let rec free_pos t i = if t.index.(i) = 0 then i else free_pos t (next t i)

let place t e =
  let i = free_pos t (home t t.keys.(e)) in
  t.index.(i) <- e + 1;
  t.at.(e) <- i

let grow t =
  let size = 2 * Array.length t.index in
  let widen a =
    let b = Array.make (size / 2) 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.keys <- widen t.keys;
  t.vals <- widen t.vals;
  t.at <- Array.make (size / 2) 0;
  t.index <- Array.make size 0;
  t.shift <- t.shift - 1;
  for e = 0 to t.len - 1 do
    place t e
  done

let insert t k v =
  if 2 * (t.len + 1) > Array.length t.index then grow t;
  let e = t.len in
  t.keys.(e) <- k;
  t.vals.(e) <- v;
  t.len <- e + 1;
  place t e

(* Empty index position [hole] by walking the probe run after it: an
   entry at [j] whose home lies cyclically outside (hole, j] moves back
   into the hole, which then moves to [j]. *)
let rec close_hole t hole j =
  let j = next t j in
  let e = t.index.(j) in
  if e = 0 then t.index.(hole) <- 0
  else begin
    let h = home t t.keys.(e - 1) in
    let stays = if hole < j then hole < h && h <= j else hole < h || h <= j in
    if stays then close_hole t hole j
    else begin
      t.index.(hole) <- e;
      t.at.(e - 1) <- hole;
      close_hole t j j
    end
  end

let remove t e =
  close_hole t t.at.(e) t.at.(e);
  let last = t.len - 1 in
  if e < last then begin
    t.keys.(e) <- t.keys.(last);
    t.vals.(e) <- t.vals.(last);
    t.at.(e) <- t.at.(last);
    t.index.(t.at.(e)) <- e + 1
  end;
  t.len <- last

let find t k =
  let e = entry t k in
  if e < 0 then 0 else t.vals.(e)

let mem t k = entry t k >= 0

let add t k d =
  if d <> 0 then begin
    let e = entry t k in
    if e < 0 then insert t k d
    else
      let v = t.vals.(e) + d in
      if v = 0 then remove t e else t.vals.(e) <- v
  end

let set t k v =
  let e = entry t k in
  if e >= 0 then if v = 0 then remove t e else t.vals.(e) <- v
  else if v <> 0 then insert t k v

let take t k =
  let e = entry t k in
  if e < 0 then 0
  else begin
    let v = t.vals.(e) in
    remove t e;
    v
  end

let clear t =
  for e = 0 to t.len - 1 do
    t.index.(t.at.(e)) <- 0
  done;
  t.len <- 0

let check t e =
  if e < 0 || e >= t.len then invalid_arg "Int_table: no such entry"

let key t e =
  check t e;
  t.keys.(e)

let value t e =
  check t e;
  t.vals.(e)

let keys t = List.init t.len (fun e -> t.keys.(e))
