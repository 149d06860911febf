module Stats = Lfrc_util.Stats
module Json = Lfrc_util.Json

type gauge = { mutable last : int; mutable max : int }

type series = { mutable buf : float array; mutable len : int }

type reg = {
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, series) Hashtbl.t;
}

(* The disabled registry is a distinct constructor, not an empty record:
   every recording operation starts with one pattern-match branch and the
   disabled arm falls straight through, which is the whole overhead of
   instrumentation when observability is off. *)
type t = Disabled | On of reg

let create () =
  On
    {
      lock = Mutex.create ();
      counters = Hashtbl.create 32;
      gauges = Hashtbl.create 8;
      hists = Hashtbl.create 8;
    }

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

let locked r f = Mutex.protect r.lock f

let add t name v =
  match t with
  | Disabled -> ()
  | On r ->
      locked r (fun () ->
          match Hashtbl.find_opt r.counters name with
          | Some c -> c := !c + v
          | None -> Hashtbl.add r.counters name (ref v))

let incr t name = add t name 1

let count t name =
  match t with
  | Disabled -> 0
  | On r ->
      locked r (fun () ->
          match Hashtbl.find_opt r.counters name with Some c -> !c | None -> 0)

let set_gauge t name v =
  match t with
  | Disabled -> ()
  | On r ->
      locked r (fun () ->
          match Hashtbl.find_opt r.gauges name with
          | Some g ->
              g.last <- v;
              if v > g.max then g.max <- v
          | None -> Hashtbl.add r.gauges name { last = v; max = v })

let observe t name x =
  match t with
  | Disabled -> ()
  | On r ->
      locked r (fun () ->
          let s =
            match Hashtbl.find_opt r.hists name with
            | Some s -> s
            | None ->
                let s = { buf = Array.make 16 0.0; len = 0 } in
                Hashtbl.add r.hists name s;
                s
          in
          if s.len = Array.length s.buf then begin
            let bigger = Array.make (2 * s.len) 0.0 in
            Array.blit s.buf 0 bigger 0 s.len;
            s.buf <- bigger
          end;
          s.buf.(s.len) <- x;
          s.len <- s.len + 1)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * (int * int)) list;
  samples : (string * float array) list;
}

let empty = { counters = []; gauges = []; samples = [] }

let is_empty s = s.counters = [] && s.gauges = [] && s.samples = []

let by_name (a, _) (b, _) = String.compare a b

let snapshot = function
  | Disabled -> empty
  | On r ->
      locked r (fun () ->
          let counters =
            Hashtbl.fold (fun k c acc -> (k, !c) :: acc) r.counters []
            |> List.sort by_name
          in
          let gauges =
            Hashtbl.fold (fun k g acc -> (k, (g.last, g.max)) :: acc) r.gauges []
            |> List.sort by_name
          in
          let samples =
            Hashtbl.fold
              (fun k s acc ->
                let a = Array.sub s.buf 0 s.len in
                Array.sort compare a;
                (k, a) :: acc)
              r.hists []
            |> List.sort by_name
          in
          { counters; gauges; samples })

let reset = function
  | Disabled -> ()
  | On r ->
      locked r (fun () ->
          Hashtbl.reset r.counters;
          Hashtbl.reset r.gauges;
          Hashtbl.reset r.hists)

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

let json_obj buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, emit) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":" (Json.escape k));
      emit buf)
    fields;
  Buffer.add_char buf '}'

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

let to_json s =
  let buf = Buffer.create 512 in
  json_obj buf
    [
      ( "counters",
        fun buf ->
          json_obj buf
            (List.map
               (fun (k, v) ->
                 (k, fun buf -> Buffer.add_string buf (string_of_int v)))
               s.counters) );
      ( "gauges",
        fun buf ->
          json_obj buf
            (List.map
               (fun (k, (last, max)) ->
                 ( k,
                   fun buf ->
                     json_obj buf
                       [
                         ( "last",
                           fun buf ->
                             Buffer.add_string buf (string_of_int last) );
                         ( "max",
                           fun buf -> Buffer.add_string buf (string_of_int max)
                         );
                       ] ))
               s.gauges) );
      ( "histograms",
        fun buf ->
          json_obj buf
            (List.map
               (fun (k, xs) ->
                 ( k,
                   fun buf ->
                     if Array.length xs = 0 then Buffer.add_string buf "{}"
                     else begin
                       let s = Stats.summarize xs in
                       Buffer.add_string buf
                         (Printf.sprintf
                            "{\"n\":%d,\"mean\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"max\":%s}"
                            s.Stats.n (json_float s.Stats.mean)
                            (json_float s.Stats.p50) (json_float s.Stats.p90)
                            (json_float s.Stats.p99) (json_float s.Stats.max))
                     end ))
               s.samples) );
    ];
  Buffer.contents buf

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
