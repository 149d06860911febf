module Stats = Lfrc_util.Stats
module Json = Lfrc_util.Json

(* --- interned keys ---

   Series names are interned once, process-wide, into dense ints, so a
   recording call indexes a slot instead of hashing a string. Callers
   intern at module initialisation or when they create a call site,
   never per event. [names] maps a key back to its name; it is
   republished whole after each insertion, so a reader that holds a key
   always finds its name. *)

type key = int

let intern_lock = Mutex.create ()
let interned : (string, key) Hashtbl.t = Hashtbl.create 128
let names = Atomic.make [||]

let key name =
  Mutex.lock intern_lock;
  let k =
    match Hashtbl.find_opt interned name with
    | Some k -> k
    | None ->
        let k = Hashtbl.length interned in
        let old = Atomic.get names in
        let a =
          if k < Array.length old then old
          else begin
            let a = Array.make (max 64 (2 * k)) "" in
            Array.blit old 0 a 0 k;
            a
          end
        in
        a.(k) <- name;
        Atomic.set names a;
        Hashtbl.add interned name k;
        k
  in
  Mutex.unlock intern_lock;
  k

let key_name k = (Atomic.get names).(k)

(* --- registries ---

   One slot per key. A counter is an [int Atomic.t], bumped without the
   registry lock; gauges stay under the lock. Untouched slots share a
   sentinel, so a series exists iff its slot is not the sentinel — a
   counter added with 0 included. Growth happens under the lock and
   copies the same cells into the larger array, so an add racing with it
   lands in a cell the new array still holds. *)

type gauge = { mutable last : int; mutable max : int }

(* A histogram keeps its samples as a multiset. Most are small counts —
   retries, scheduler steps — so a sample [v] with [0 <= v < small_limit]
   bumps bucket [v], an atomic cell like a counter's, without the lock.
   The buckets grow under the lock, carrying their cells over, as the
   counter slots do. Any other sample is appended to [buf] under the
   lock. A snapshot merges both into one sorted array, exactly the
   samples observed. *)
type series = {
  small : int Atomic.t array Atomic.t;
  mutable buf : int array;
  mutable len : int;
}

let small_limit = 4096

let no_counter = Atomic.make 0
let no_gauge = { last = 0; max = 0 }
let no_series = { small = Atomic.make [||]; buf = [||]; len = 0 }

type reg = {
  lock : Mutex.t;
  counters : int Atomic.t array Atomic.t;
  mutable gauges : gauge array;
  hists : series array Atomic.t;
}

(* The disabled registry is a distinct constructor, not an empty record:
   every recording operation starts with one pattern-match branch and the
   disabled arm falls straight through, which is the whole overhead of
   instrumentation when observability is off. *)
type t = Disabled | On of reg

let initial_slots = 64

let create () =
  On
    {
      lock = Mutex.create ();
      counters = Atomic.make (Array.make initial_slots no_counter);
      gauges = Array.make initial_slots no_gauge;
      hists = Atomic.make (Array.make initial_slots no_series);
    }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

(* [a] with room for slot [k]: itself, or a larger copy whose new slots
   hold [none]. Called under the registry lock. *)
let with_slot a k none =
  let n = Array.length a in
  if k < n then a
  else begin
    let bigger = Array.make (max (2 * n) (k + 1)) none in
    Array.blit a 0 bigger 0 n;
    bigger
  end

let counter_slow r k =
  Mutex.lock r.lock;
  let cs = with_slot (Atomic.get r.counters) k no_counter in
  let c = cs.(k) in
  let c =
    if c != no_counter then c
    else begin
      let c = Atomic.make 0 in
      cs.(k) <- c;
      c
    end
  in
  Atomic.set r.counters cs;
  Mutex.unlock r.lock;
  c

let add t k v =
  match t with
  | Disabled -> ()
  | On r ->
      let cs = Atomic.get r.counters in
      let c = if k < Array.length cs then Array.unsafe_get cs k else no_counter in
      let c = if c != no_counter then c else counter_slow r k in
      ignore (Atomic.fetch_and_add c v)

let incr t k = add t k 1

let count t k =
  match t with
  | Disabled -> 0
  | On r ->
      let cs = Atomic.get r.counters in
      if k < Array.length cs then Atomic.get (Array.unsafe_get cs k) else 0

let set_gauge t k v =
  match t with
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      r.gauges <- with_slot r.gauges k no_gauge;
      let g = r.gauges.(k) in
      if g == no_gauge then r.gauges.(k) <- { last = v; max = v }
      else begin
        g.last <- v;
        if v > g.max then g.max <- v
      end;
      Mutex.unlock r.lock

let series_slow r k =
  Mutex.lock r.lock;
  let hs = with_slot (Atomic.get r.hists) k no_series in
  let s = hs.(k) in
  let s =
    if s != no_series then s
    else begin
      let s = { small = Atomic.make [||]; buf = [||]; len = 0 } in
      hs.(k) <- s;
      s
    end
  in
  Atomic.set r.hists hs;
  Mutex.unlock r.lock;
  s

(* A sample without a bucket yet: grow the buckets to cover a small one
   (fresh cells past the old ones, which carry over), or append any
   other to [buf]. *)
let observe_slow r s v =
  Mutex.lock r.lock;
  if v >= 0 && v < small_limit then begin
    let b = Atomic.get s.small in
    let n = Array.length b in
    let b =
      if v < n then b
      else begin
        let bigger =
          Array.init
            (min small_limit (max 16 (2 * (v + 1))))
            (fun i -> if i < n then b.(i) else Atomic.make 0)
        in
        Atomic.set s.small bigger;
        bigger
      end
    in
    Atomic.incr b.(v)
  end
  else begin
    if s.len = Array.length s.buf then begin
      let bigger = Array.make (max 16 (2 * s.len)) 0 in
      Array.blit s.buf 0 bigger 0 s.len;
      s.buf <- bigger
    end;
    s.buf.(s.len) <- v;
    s.len <- s.len + 1
  end;
  Mutex.unlock r.lock

let observe t k v =
  match t with
  | Disabled -> ()
  | On r ->
      let hs = Atomic.get r.hists in
      let s = if k < Array.length hs then Array.unsafe_get hs k else no_series in
      let s = if s != no_series then s else series_slow r k in
      let b = Atomic.get s.small in
      if v >= 0 && v < Array.length b then Atomic.incr (Array.unsafe_get b v)
      else observe_slow r s v

(* Walks every bucket: for reporting, not for a hot path. *)
let tally t k =
  match t with
  | Disabled -> (0, 0, 0)
  | On r ->
      let n = ref 0 and sum = ref 0 and top = ref min_int in
      let add v c =
        if c > 0 then begin
          n := !n + c;
          sum := !sum + (v * c);
          top := max !top v
        end
      in
      Mutex.lock r.lock;
      let hs = Atomic.get r.hists in
      let s = if k < Array.length hs then hs.(k) else no_series in
      for i = 0 to s.len - 1 do add s.buf.(i) 1 done;
      Array.iteri (fun v c -> add v (Atomic.get c)) (Atomic.get s.small);
      Mutex.unlock r.lock;
      (!n, !sum, if !n = 0 then 0 else !top)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * (int * int)) list;
  samples : (string * float array) list;
}

let empty = { counters = []; gauges = []; samples = [] }

let is_empty s = s.counters = [] && s.gauges = [] && s.samples = []

let by_name (a, _) (b, _) = String.compare a b

(* A series' samples, sorted ascending, in time linear in their number
   (past sorting [buf]). Called under the lock. Every sample in [buf]
   lies outside the buckets' range, so the sorted [buf]'s negatives come
   first, then the buckets in order, then the rest of [buf]. *)
let samples_of s =
  let counts = Array.map Atomic.get (Atomic.get s.small) in
  let in_range = Array.fold_left ( + ) 0 counts in
  let over = Array.sub s.buf 0 s.len in
  Array.sort Int.compare over;
  let a = Array.make (in_range + s.len) 0.0 in
  let neg = Array.fold_left (fun n v -> if v < 0 then n + 1 else n) 0 over in
  Array.iteri
    (fun j v -> a.(if j < neg then j else in_range + j) <- float v)
    over;
  let i = ref neg in
  Array.iteri
    (fun v c ->
      Array.fill a !i c (float v);
      i := !i + c)
    counts;
  a

(* The touched slots of [a], as (name, value) pairs sorted by name. *)
let touched a none value =
  let acc = ref [] in
  Array.iteri
    (fun k x -> if x != none then acc := (key_name k, value x) :: !acc)
    a;
  List.sort by_name !acc

let snapshot = function
  | Disabled -> empty
  | On r ->
      Mutex.lock r.lock;
      let counters = touched (Atomic.get r.counters) no_counter Atomic.get in
      let gauges = touched r.gauges no_gauge (fun g -> (g.last, g.max)) in
      let samples = touched (Atomic.get r.hists) no_series samples_of in
      Mutex.unlock r.lock;
      { counters; gauges; samples }

let reset = function
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      Atomic.set r.counters (Array.make initial_slots no_counter);
      r.gauges <- Array.make initial_slots no_gauge;
      Atomic.set r.hists (Array.make initial_slots no_series);
      Mutex.unlock r.lock

let counter_value s name =
  match List.assoc_opt name s.counters with Some v -> v | None -> 0

let gauge_value s name = List.assoc_opt name s.gauges

(* Merge two sorted association lists, combining values on key collision. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, va) :: ra, (kb, vb) :: rb ->
      let c = String.compare ka kb in
      if c < 0 then (ka, va) :: merge_assoc combine ra b
      else if c > 0 then (kb, vb) :: merge_assoc combine a rb
      else (ka, combine va vb) :: merge_assoc combine ra rb

(* Two ascending sample arrays as one, in linear time. *)
let merge_sorted (xs : float array) (ys : float array) =
  let nx = Array.length xs and ny = Array.length ys in
  let m = Array.make (nx + ny) 0.0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to nx + ny - 1 do
    if !j >= ny || (!i < nx && Float.compare xs.(!i) ys.(!j) <= 0) then begin
      m.(k) <- xs.(!i);
      i := !i + 1
    end
    else begin
      m.(k) <- ys.(!j);
      j := !j + 1
    end
  done;
  m

let merge a b =
  {
    counters = merge_assoc ( + ) a.counters b.counters;
    gauges =
      merge_assoc
        (fun (_, max_a) (last_b, max_b) -> (last_b, max max_a max_b))
        a.gauges b.gauges;
    samples = merge_assoc merge_sorted a.samples b.samples;
  }

let json_float x =
  Json.Num
    (if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
     else Printf.sprintf "%.6g" x)

let to_json s =
  let series f xs = Json.Object (List.map (fun (k, v) -> (k, f v)) xs) in
  Json.Object
    [
      ("counters", series (fun v -> Json.Int v) s.counters);
      ( "gauges",
        series
          (fun (last, max) ->
            Json.Object [ ("last", Json.Int last); ("max", Json.Int max) ])
          s.gauges );
      ( "histograms",
        series
          (fun xs ->
            if Array.length xs = 0 then Json.Object []
            else
              let h = Stats.summarize xs in
              Json.Object
                [
                  ("n", Json.Int h.Stats.n);
                  ("mean", json_float h.Stats.mean);
                  ("p50", json_float h.Stats.p50);
                  ("p90", json_float h.Stats.p90);
                  ("p99", json_float h.Stats.p99);
                  ("max", json_float h.Stats.max);
                ])
          s.samples );
    ]

let pp ppf s =
  let first = ref true in
  let line fmt =
    if !first then first := false else Format.pp_print_cut ppf ();
    Format.fprintf ppf fmt
  in
  Format.pp_open_vbox ppf 0;
  List.iter (fun (k, v) -> line "%s = %d" k v) s.counters;
  List.iter
    (fun (k, (last, max)) -> line "%s = %d (max %d)" k last max)
    s.gauges;
  List.iter
    (fun (k, xs) ->
      if Array.length xs > 0 then
        line "%s: %a" k Stats.pp_summary (Stats.summarize xs))
    s.samples;
  Format.pp_close_box ppf ()
