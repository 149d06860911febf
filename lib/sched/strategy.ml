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

type kind =
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

(* A choice reads the enabled set as an array of ascending ids, rebuilt
   in place only when the mask differs from the last one seen: a thread
   started, blocked, unblocked or finished, or a Handicap freeze phase
   turned. Between those events a choice costs one compare before its
   pick, and neither a choice nor a rebuild allocates. *)
type state = {
  kind : kind;
  ids : int array; (* the ascending ids of [seen], in its first [n] slots *)
  mutable n : int;
  mutable seen : int; (* first 0, which no choice is given *)
}

let max_threads = Limits.max_threads

let start t ~expected_steps =
  let kind =
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
  in
  { kind; ids = Array.make max_threads 0; n = 0; seen = 0 }

(* Write the ids of [mask]'s set bits, bit [i] first, to [ids] from [n]
   on; the new count. *)
let rec fill (ids : int array) mask i n =
  if mask = 0 then n
  else if mask land 1 = 0 then fill ids (mask lsr 1) (i + 1) n
  else begin
    ids.(n) <- i;
    fill ids (mask lsr 1) (i + 1) (n + 1)
  end

let see st mask =
  if mask <> st.seen then begin
    st.n <- fill st.ids mask 0 0;
    st.seen <- mask
  end

(* The same draw and pick as [List.nth] of the ascending id list. *)
let uniform st rng mask =
  see st mask;
  st.ids.(Lfrc_util.Rng.int rng st.n)

(* The id in [ids] from [i] below [n] with the lowest priority value,
   starting from [best]; ties go to the lowest id. *)
let rec lowest (priorities : float array) (ids : int array) n i best =
  if i = n then best
  else
    let id = ids.(i) in
    lowest priorities ids n (i + 1)
      (if priorities.(id) < priorities.(best) then id else best)

(* The enabled thread PCT runs next. *)
let runs_first st priorities enabled =
  see st enabled;
  lowest priorities st.ids st.n 1 st.ids.(0)

(* The first entry of the sorted [steps], from [c] on, not below [step]. *)
let rec skip_before (steps : int array) step c =
  if c < Array.length steps && steps.(c) < step then
    skip_before steps step (c + 1)
  else c

(* The first id in [ids] from [i] below [n] above [last], wrapping to the
   lowest. *)
let rec above (ids : int array) n last i =
  if i = n then ids.(0)
  else if ids.(i) > last then ids.(i)
  else above ids n last (i + 1)

let rec lowest_bit mask i =
  if mask land (1 lsl i) <> 0 then i else lowest_bit mask (i + 1)

let first_enabled enabled =
  if enabled = 0 then invalid_arg "Strategy: empty enabled set"
  else lowest_bit enabled 0

let choose st ~step ~enabled ~last =
  match st.kind with
  | Rr_state ->
      see st enabled;
      above st.ids st.n last 0
  | Random_state rng -> uniform st rng enabled
  | Pct_state p ->
      (* At a change point, demote the currently highest-priority enabled
         thread to the back of the priority order. [Sched.run] passes
         steps in order, so a cursor over the sorted change points finds
         each one without a search. *)
      let c = skip_before p.change_steps step p.next_change in
      p.next_change <- c;
      if c < Array.length p.change_steps && p.change_steps.(c) = step then begin
        let best = runs_first st p.priorities enabled in
        p.priorities.(best) <- 1.0 +. Lfrc_util.Rng.float p.rng
      end;
      runs_first st p.priorities enabled
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
      uniform st rng eligible
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
        | Some rng -> uniform st rng enabled
      end
