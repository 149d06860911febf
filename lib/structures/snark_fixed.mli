(** Corrected Snark deque with value-claiming pops.

    The published Snark algorithm can return the same value to two
    competing pops (Doherty et al., SPAA 2004; rediscovered by this
    repository's model checker — see EXPERIMENTS.md A4). This variant
    makes *claiming the value* the linearization point of a pop:

    - a pop claims the hat node by a DCAS on [(hat, node.V)] that replaces
      the value with a reserved [claimed] marker while verifying the node
      is still at the hat — so exactly one pop can ever take a node's
      value;
    - unlinking the claimed node (swinging the hat past it and nulling its
      inward link) is a separate, idempotent cleanup step that any thread
      finding a claimed node at a hat helps with.

    The mixed pointer/value DCAS this needs is the operation-set extension
    the paper's Section 2.1 anticipates ({!Lfrc_core.Lfrc.dcas_ptr_val}).

    Pushes are the published algorithm's. Dead nodes spliced over by a
    racing push are skipped lazily, one unlink per encounter. User values
    must avoid the reserved {!claimed} marker (asserted on push). *)

val claimed : int
(** Reserved value marker; pushes assert their value differs. *)

module Make (O : Lfrc_core.Ops_intf.OPS_DCAS) : Container_intf.DEQUE
