type t =
  | Round_robin
  | Random of int
  | Pct of { seed : int; change_points : int }
  | Scripted of { prefix : int array; tail_seed : int option }
  | Handicap of { seed : int; victim : int; period : int }

exception Script_diverged of { step : int; wanted : int; enabled : int }

(* One-token descriptions, parseable back by [of_string] so a failure
   message alone is enough to reproduce a randomized run. [Scripted] is
   the exception: its prefix can be arbitrarily long, so it is described
   but not parseable. *)
let describe = function
  | Round_robin -> "rr"
  | Random seed -> Printf.sprintf "random:%d" seed
  | Pct { seed; change_points } -> Printf.sprintf "pct:%d:%d" seed change_points
  | Scripted { prefix; tail_seed } ->
      Printf.sprintf "scripted:%d%s" (Array.length prefix)
        (match tail_seed with None -> "" | Some s -> Printf.sprintf ":%d" s)
  | Handicap { seed; victim; period } ->
      Printf.sprintf "handicap:%d:%d:%d" seed victim period

let of_string s =
  match String.split_on_char ':' s with
  | [ "rr" ] -> Some Round_robin
  | [ "random"; seed ] -> Option.map (fun s -> Random s) (int_of_string_opt seed)
  | [ "pct"; seed; cp ] -> (
      match (int_of_string_opt seed, int_of_string_opt cp) with
      | Some seed, Some change_points -> Some (Pct { seed; change_points })
      | _ -> None)
  | [ "handicap"; seed; victim; period ] -> (
      match
        (int_of_string_opt seed, int_of_string_opt victim,
         int_of_string_opt period)
      with
      | Some seed, Some victim, Some period ->
          Some (Handicap { seed; victim; period })
      | _ -> None)
  | _ -> None

type state =
  | Rr_state
  | Random_state of Lfrc_util.Rng.t
  | Pct_state of {
      rng : Lfrc_util.Rng.t;
      priorities : float array; (* lower value = runs first *)
      change_steps : int array; (* sorted step indices where priority drops *)
      mutable next_change : int; (* first entry of [change_steps] not passed *)
    }
  | Scripted_state of { prefix : int array; tail : Lfrc_util.Rng.t option }
  | Handicap_state of { rng : Lfrc_util.Rng.t; victim : int; period : int }

let max_threads = Limits.max_threads

let start t ~expected_steps =
  match t with
  | Round_robin -> Rr_state
  | Random seed -> Random_state (Lfrc_util.Rng.create seed)
  | Pct { seed; change_points } ->
      let rng = Lfrc_util.Rng.create seed in
      let priorities =
        Array.init max_threads (fun _ -> Lfrc_util.Rng.float rng)
      in
      let change_steps =
        Array.init change_points (fun _ ->
            Lfrc_util.Rng.int rng (max expected_steps 1))
      in
      Array.sort compare change_steps;
      Pct_state { rng; priorities; change_steps; next_change = 0 }
  | Scripted { prefix; tail_seed } ->
      Scripted_state
        { prefix; tail = Option.map Lfrc_util.Rng.create tail_seed }
  | Handicap { seed; victim; period } ->
      Handicap_state { rng = Lfrc_util.Rng.create seed; victim; period }

(* Every choice walks the enabled bitmask itself, so a choice allocates
   nothing. A scan for a set bit needs no bound: it starts below a bit
   that is set. *)

let rec lowest_bit mask i =
  if mask land (1 lsl i) <> 0 then i else lowest_bit mask (i + 1)

let rec popcount mask n =
  if mask = 0 then n else popcount (mask land (mask - 1)) (n + 1)

(* The [k]-th set bit, counting from the lowest: the [k]-th element of
   the ascending list of enabled ids. *)
let rec nth_bit mask k =
  if k = 0 then lowest_bit mask 0 else nth_bit (mask land (mask - 1)) (k - 1)

let uniform rng mask =
  nth_bit mask (Lfrc_util.Rng.int rng (popcount mask 0))

(* The thread in [mask] with the lowest priority value, starting from
   [best]; ties go to the lowest id. *)
let rec min_priority (priorities : float array) mask best =
  if mask = 0 then best
  else
    let i = lowest_bit mask 0 in
    min_priority priorities (mask land (mask - 1))
      (if priorities.(i) < priorities.(best) then i else best)

(* The enabled thread PCT runs next. *)
let runs_first priorities enabled =
  min_priority priorities enabled (lowest_bit enabled 0)

(* The first entry of the sorted [steps], from [c] on, not below [step]. *)
let rec skip_before (steps : int array) step c =
  if c < Array.length steps && steps.(c) < step then
    skip_before steps step (c + 1)
  else c

let first_enabled enabled =
  if enabled = 0 then invalid_arg "Strategy: empty enabled set"
  else lowest_bit enabled 0

(* Next enabled thread at or after [i], wrapping. *)
let rec next_enabled enabled i =
  let i = if i >= max_threads then 0 else i in
  if enabled land (1 lsl i) <> 0 then i else next_enabled enabled (i + 1)

let choose st ~step ~enabled ~last =
  match st with
  | Rr_state -> next_enabled enabled (last + 1)
  | Random_state rng -> uniform rng enabled
  | Pct_state p ->
      (* At a change point, demote the currently highest-priority enabled
         thread to the back of the priority order. [Sched.run] passes
         steps in order, so a cursor over the sorted change points finds
         each one without a search. *)
      let c = skip_before p.change_steps step p.next_change in
      p.next_change <- c;
      if c < Array.length p.change_steps && p.change_steps.(c) = step then begin
        let best = runs_first p.priorities enabled in
        p.priorities.(best) <- 1.0 +. Lfrc_util.Rng.float p.rng
      end;
      runs_first p.priorities enabled
  | Handicap_state { rng; victim; period } ->
      (* Duty-cycle stall: the victim runs normally for [period] steps,
         then freezes for [period] steps, repeatedly — so it can be
         caught mid-operation (e.g. holding a lock) when the freeze
         begins. If it is the only enabled thread it runs regardless. *)
      let frozen = step mod (2 * period) >= period in
      let eligible =
        if frozen && enabled <> 1 lsl victim then
          enabled land lnot (1 lsl victim)
        else enabled
      in
      uniform rng eligible
  | Scripted_state { prefix; tail } ->
      if step < Array.length prefix then begin
        let wanted = prefix.(step) in
        if enabled land (1 lsl wanted) = 0 then
          raise (Script_diverged { step; wanted; enabled });
        wanted
      end
      else begin
        match tail with
        | None -> first_enabled enabled
        | Some rng -> uniform rng enabled
      end
