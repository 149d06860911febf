type kind = Push_left | Push_right | Pop_left | Pop_right

type t = { weights : (kind * int) list; mix_name : string }

let make weights =
  if weights = [] || List.exists (fun (_, w) -> w < 0) weights then
    invalid_arg "Opmix.make";
  let mix_name =
    String.concat "/"
      (List.map
         (fun (k, w) ->
           let tag =
             match k with
             | Push_left -> "pl"
             | Push_right -> "pr"
             | Pop_left -> "ol"
             | Pop_right -> "or"
           in
           Printf.sprintf "%s%d" tag w)
         weights)
  in
  { weights; mix_name }

let named name weights = { (make weights) with mix_name = name }

let balanced_deque =
  named "balanced"
    [ (Push_left, 25); (Push_right, 25); (Pop_left, 25); (Pop_right, 25) ]

let right_only = named "right-only" [ (Push_right, 50); (Pop_right, 50) ]

let stream t ~seed ~thread n =
  let rng = Lfrc_util.Rng.create ((seed * 1_000_003) + thread) in
  let total = List.fold_left (fun a (_, w) -> a + w) 0 t.weights in
  let draw () =
    let x = Lfrc_util.Rng.int rng total in
    let rec pick acc = function
      | [] -> assert false
      | (k, w) :: rest -> if x < acc + w then k else pick (acc + w) rest
    in
    pick 0 t.weights
  in
  Array.init n (fun _ -> draw ())

let name t = t.mix_name

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Push_left -> "push_left"
    | Push_right -> "push_right"
    | Pop_left -> "pop_left"
    | Pop_right -> "pop_right")
