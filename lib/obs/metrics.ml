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
   registry lock; gauges and histograms stay under the lock. Untouched
   slots share a sentinel, so a series exists iff its slot is not the
   sentinel — a counter added with 0 included. Growth happens under the
   lock and copies the same counter cells into the larger array, so an
   add racing with it lands in a cell the new array still holds. *)

type gauge = { mutable last : int; mutable max : int }

(* A histogram keeps its samples as a multiset. Most are small counts —
   retries, scheduler steps — so a sample that is a non-negative integer
   below [small_limit] only bumps [small.(v)]; any other sample is
   appended to [buf]. A snapshot expands both into one sorted array,
   exactly the samples observed. *)
type series = {
  mutable small : int array;
  mutable buf : float array;
  mutable len : int;
}

let small_limit = 4096

let no_counter = Atomic.make 0
let no_gauge = { last = 0; max = 0 }
let no_series = { small = [||]; buf = [||]; len = 0 }

type reg = {
  lock : Mutex.t;
  counters : int Atomic.t array Atomic.t;
  mutable gauges : gauge array;
  mutable hists : series array;
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
      hists = Array.make initial_slots no_series;
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

let observe t k x =
  match t with
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      r.hists <- with_slot r.hists k no_series;
      let s =
        let s = r.hists.(k) in
        if s != no_series then s
        else begin
          let s = { small = [||]; buf = [||]; len = 0 } in
          r.hists.(k) <- s;
          s
        end
      in
      if
        Float.is_integer x && x >= 0.0 && x < float small_limit
        && not (Float.sign_bit x)
      then begin
        let v = int_of_float x in
        if v >= Array.length s.small then begin
          let bigger = Array.make (min small_limit (max 16 (2 * (v + 1)))) 0 in
          Array.blit s.small 0 bigger 0 (Array.length s.small);
          s.small <- bigger
        end;
        s.small.(v) <- s.small.(v) + 1
      end
      else begin
        if s.len = Array.length s.buf then begin
          let bigger = Array.make (max 16 (2 * s.len)) 0.0 in
          Array.blit s.buf 0 bigger 0 s.len;
          s.buf <- bigger
        end;
        s.buf.(s.len) <- x;
        s.len <- s.len + 1
      end;
      Mutex.unlock r.lock

type snapshot = {
  counters : (string * int) list;
  gauges : (string * (int * int)) list;
  samples : (string * float array) list;
}

let empty = { counters = []; gauges = []; samples = [] }

let is_empty s = s.counters = [] && s.gauges = [] && s.samples = []

let by_name (a, _) (b, _) = String.compare a b

(* A series' samples, sorted ascending. *)
let samples_of s =
  let n = Array.fold_left ( + ) s.len s.small in
  let a = Array.make n 0.0 in
  Array.blit s.buf 0 a 0 s.len;
  let i = ref s.len in
  Array.iteri
    (fun v c ->
      Array.fill a !i c (float v);
      i := !i + c)
    s.small;
  Array.sort compare a;
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
      let samples =
        touched r.hists no_series samples_of
      in
      Mutex.unlock r.lock;
      { counters; gauges; samples }

let reset = function
  | Disabled -> ()
  | On r ->
      Mutex.lock r.lock;
      Atomic.set r.counters (Array.make initial_slots no_counter);
      r.gauges <- Array.make initial_slots no_gauge;
      r.hists <- Array.make initial_slots no_series;
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

let merge a b =
  {
    counters = merge_assoc ( + ) a.counters b.counters;
    gauges =
      merge_assoc
        (fun (_, max_a) (last_b, max_b) -> (last_b, max max_a max_b))
        a.gauges b.gauges;
    samples =
      merge_assoc
        (fun xs ys ->
          let m = Array.append xs ys in
          Array.sort compare m;
          m)
        a.samples b.samples;
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
