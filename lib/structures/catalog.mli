(** The analyzable catalog: every shipped structure packaged for the
    static discipline checker (see [lib/analysis]), tagged with the
    primitive {!tier} it requires. *)

(** The primitive tier a structure needs from its [OPS] functor argument:
    [Cas] — single-word CAS only ({!Lfrc_core.Ops_intf.OPS_CAS});
    [Dcas] — the full double-word signature
    ({!Lfrc_core.Ops_intf.OPS_DCAS}). The tier is enforced twice: the
    type checker keeps [dcas] out of a [Cas]-tier builder's vocabulary,
    and the symbolic analyzer holds recorded traces of a claimed tier to
    its obligations (see [Lfrc_analysis.Absint]). *)
type tier = Cas | Dcas

val tier_name : tier -> string
(** ["cas"] / ["dcas"] — the CLI/report spelling. *)

type cas_ops = (module Lfrc_core.Ops_intf.OPS_CAS)
type dcas_ops = (module Lfrc_core.Ops_intf.OPS_DCAS)

type actions = (string * (unit -> unit)) list
(** A structure's focal operations as named thunks. *)

(** Build an instance over the minimal module the entry's tier grants it
    and return the operations to analyze. Called once per analysis,
    outside the recorded window (setup is not analyzed); each thunk is
    then re-run once per explored control-flow path. *)
type pack =
  | Cas_pack of (cas_ops -> Lfrc_core.Env.t -> actions)
  | Dcas_pack of (dcas_ops -> Lfrc_core.Env.t -> actions)

type entry = { name : string; tier : tier; pack : pack }

val tier : entry -> tier

val actions_over : dcas_ops -> entry -> Lfrc_core.Env.t -> actions
(** Apply an entry's builder to a full (DCAS-tier) module. A [Cas]-tier
    entry receives it re-packed at the narrower signature, so the
    double-word operations are unreachable inside the builder even though
    the underlying module (e.g. the checker's recorder) implements
    them. *)

val deque_actions : (module Container_intf.DEQUE) -> Lfrc_core.Env.t -> actions
val set_actions : (module Container_intf.SET) -> Lfrc_core.Env.t -> actions

val entries : entry list
(** All shipped structures: treiber, msqueue, sundell (Cas tier); snark,
    snark-fixed, dlist-set, skiplist (Dcas tier). *)

val names : ?tier:tier -> unit -> string list
(** Catalog names in entry order, optionally restricted to one tier. *)

val find : string -> entry option
