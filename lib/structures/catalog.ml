(** The analyzable catalog: every shipped structure, packaged for the
    static discipline checker ([lib/analysis]).

    Each {!entry} declares the primitive {!tier} it needs — [Cas] for
    structures whose functor argument is {!Lfrc_core.Ops_intf.OPS_CAS},
    [Dcas] for those needing the full double-word signature — and packs a
    builder over exactly that minimal module type. The checker passes its
    recording instance (which satisfies the DCAS tier, hence both); the
    builder returns the structure's focal operations as named thunks. The
    checker runs the builder once (muted, so setup is not analyzed) and
    then symbolically enumerates the control-flow paths of each action,
    holding the entry to its declared tier's obligations (a [Cas]-tier
    path recording a DCAS is a violation).

    Actions use the [try_*] variants of allocating operations so the
    analyzer also covers the graceful-OOM back-out paths, and fixed small
    keys so value-comparison branches are driven by the checker's concolic
    value pool rather than by data. *)

type tier = Cas | Dcas

let tier_name = function Cas -> "cas" | Dcas -> "dcas"

type cas_ops = (module Lfrc_core.Ops_intf.OPS_CAS)
type dcas_ops = (module Lfrc_core.Ops_intf.OPS_DCAS)

type actions = (string * (unit -> unit)) list

(** The builder over the minimal module the entry's tier grants it. A
    [Cas]-tier entry receives only the single-word operations — its
    structures cannot even name [dcas]. *)
type pack =
  | Cas_pack of (cas_ops -> Lfrc_core.Env.t -> actions)
  | Dcas_pack of (dcas_ops -> Lfrc_core.Env.t -> actions)

type entry = { name : string; tier : tier; pack : pack }

let tier e = e.tier

(* Apply an entry's builder to a full (DCAS-tier) module: a [Cas]-tier
   entry sees it re-packed at the narrower signature — width subtyping at
   pack time — so the extra operations are unreachable inside. *)
let actions_over (module O : Lfrc_core.Ops_intf.OPS_DCAS) entry env =
  match entry.pack with
  | Cas_pack mk -> mk (module O : Lfrc_core.Ops_intf.OPS_CAS) env
  | Dcas_pack mk -> mk (module O : Lfrc_core.Ops_intf.OPS_DCAS) env

let treiber =
  {
    name = "treiber";
    tier = Cas;
    pack =
      Cas_pack
        (fun (module O : Lfrc_core.Ops_intf.OPS_CAS) env ->
          let module S = Treiber.Make (O) in
          let h = S.register (S.create env) in
          [
            ("try_push", fun () -> ignore (S.try_push h 42));
            ("pop", fun () -> ignore (S.pop h));
          ]);
  }

let msqueue =
  {
    name = "msqueue";
    tier = Cas;
    pack =
      Cas_pack
        (fun (module O : Lfrc_core.Ops_intf.OPS_CAS) env ->
          let module S = Msqueue.Make (O) in
          let h = S.register (S.create env) in
          [
            ("try_enqueue", fun () -> ignore (S.try_enqueue h 42));
            ("dequeue", fun () -> ignore (S.dequeue h));
          ]);
  }

let deque_actions (module S : Container_intf.DEQUE) env =
  let h = S.register (S.create env) in
  [
    ("try_push_right", fun () -> ignore (S.try_push_right h 42));
    ("try_push_left", fun () -> ignore (S.try_push_left h 42));
    ("pop_right", fun () -> ignore (S.pop_right h));
    ("pop_left", fun () -> ignore (S.pop_left h));
  ]

let sundell =
  {
    name = "sundell";
    tier = Cas;
    pack =
      Cas_pack
        (fun (module O : Lfrc_core.Ops_intf.OPS_CAS) env ->
          deque_actions (module Sundell_deque.Make (O)) env);
  }

let snark =
  {
    name = "snark";
    tier = Dcas;
    pack =
      Dcas_pack
        (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
          deque_actions (module Snark.Make (O)) env);
  }

let snark_fixed =
  {
    name = "snark-fixed";
    tier = Dcas;
    pack =
      Dcas_pack
        (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
          deque_actions (module Snark_fixed.Make (O)) env);
  }

let set_actions (module S : Container_intf.SET) env =
  let h = S.register (S.create env) in
  [
    ("try_insert", fun () -> ignore (S.try_insert h 7));
    (* A second key exercises the "already present" comparison arms the
       concolic pool unlocks once 7 is in play. *)
    ("try_insert_existing", fun () -> ignore (S.try_insert h 0));
    ("remove", fun () -> ignore (S.remove h 7));
    ("contains", fun () -> ignore (S.contains h 7));
    ("to_list", fun () -> ignore (S.to_list h));
  ]

let dlist_set =
  {
    name = "dlist-set";
    tier = Dcas;
    pack =
      Dcas_pack
        (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
          set_actions (module Dlist_set.Make (O)) env);
  }

let skiplist =
  {
    name = "skiplist";
    tier = Dcas;
    pack =
      Dcas_pack
        (fun (module O : Lfrc_core.Ops_intf.OPS_DCAS) env ->
          set_actions (module Skiplist.As_set (O)) env);
  }

let entries =
  [ treiber; msqueue; sundell; snark; snark_fixed; dlist_set; skiplist ]

let names ?tier () =
  List.filter_map
    (fun e ->
      match tier with
      | Some t when t <> e.tier -> None
      | _ -> Some e.name)
    entries

let find name = List.find_opt (fun e -> e.name = name) entries
