type step = { tid : int; enabled : int }
type t = step array

let chosen t = Array.map (fun s -> s.tid) t

let enabled_list s =
  let rec go i acc =
    if i > 62 then List.rev acc
    else go (i + 1) (if s.enabled land (1 lsl i) <> 0 then i :: acc else acc)
  in
  go 0 []

let is_preemption t i =
  i > 0
  && t.(i).tid <> t.(i - 1).tid
  && t.(i).enabled land (1 lsl t.(i - 1).tid) <> 0

let preemptions t =
  let count = ref 0 in
  Array.iteri (fun i _ -> if is_preemption t i then incr count) t;
  !count
