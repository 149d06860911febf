(** The op-level intermediate representation the static checker works on.

    One {!op} is one call into the recording {!Ops_intf.OPS_DCAS} instance
    ({!Record_ops}), plus the branch markers the oracle injects at each
    nondeterministic decision point. A {!path} is the linear trace of one
    symbolically executed control-flow path through a structure operation:
    branch markers record which way the oracle sent the execution, and the
    final {!status} records how the path ended (its join point back into
    the caller, or the reason it was cut short).

    Pointers in the IR are the recorder's concrete object ids (the
    recorder materializes one real heap object per distinct symbolic
    pointer so that client code can derive cells from them); locals are
    small integers assigned at [declare]. Cell operands are {!Cell.id}s —
    sufficient for reporting, since the checker's ownership domain never
    needs to know which object a cell belongs to. *)

type ptr = int
(** Recorder object id; 0 is null (= {!Lfrc_simmem.Heap.null}). *)

(** Which kind of oracle decision a {!Branch} marker records. *)
type dkind =
  | KLoad  (** what a [load] observes: null / fresh / a repeat *)
  | KCas
  | KDcas
  | KDcasPV
  | KTryAlloc
  | KCasVal
  | KVal  (** which value a [read_val] observes *)

let dkind_name = function
  | KLoad -> "load"
  | KCas -> "cas"
  | KDcas -> "dcas"
  | KDcasPV -> "dcas_ptr_val"
  | KTryAlloc -> "try_alloc"
  | KCasVal -> "cas_val"
  | KVal -> "read_val"

type op =
  | Declare of { local : int }
  | Retire of { local : int }
  | Get of { local : int; ptr : ptr }
  | Load of { cell : int; local : int; ptr : ptr }
  | Store of { cell : int; ptr : ptr }
  | Store_alloc of { cell : int; local : int }
  | Copy of { local : int; ptr : ptr }
  | Set_null of { local : int }
  | Cas of { cell : int; old_ptr : ptr; new_ptr : ptr; ok : bool }
  | Dcas of {
      cell0 : int;
      cell1 : int;
      old0 : ptr;
      old1 : ptr;
      new0 : ptr;
      new1 : ptr;
      ok : bool;
    }
  | Dcas_ptr_val of {
      ptr_cell : int;
      val_cell : int;
      old_ptr : ptr;
      new_ptr : ptr;
      ok : bool;
    }
  | Alloc of { local : int; ptr : ptr; layout : string }
  | Try_alloc of { local : int; ptr : ptr; ok : bool }
      (** [ptr] is 0 when the oracle made the allocation fail. *)
  | Flush
      (** a quiescent-point settle of deferred bookkeeping: under
          deferred-rc every parked delta lands, so a borrowed raw pointer
          whose owners are all dead may be freed here *)
  | Read_val of { cell : int; v : int }
  | Write_val of { cell : int; v : int }
  | Cas_val of { cell : int; ok : bool }
  | Branch of { index : int; kind : dkind; arity : int; choice : int }
      (** Decision [index] of this path: the oracle picked [choice] out of
          [0 .. arity-1] (0 is always the terminating default). *)

(** How a path ended. *)
type status =
  | Completed  (** the operation returned: the join point *)
  | Infeasible of string
      (** the oracle's choices produced a state the structure's invariants
          exclude (e.g. a null-pointer cell derivation raised); the path
          is abandoned, not charged as a violation *)
  | Decision_limit
      (** the path exceeded the decision/op budget and was cut off *)
  | Bypass of string
      (** the code called {!Lfrc} directly instead of going through its
          OPS argument — reported as a violation in its own right *)

type path = {
  ops : op list;
  decisions : (dkind * int * int) list;  (** (kind, arity, choice) taken *)
  status : status;
}

let pp_op ppf op =
  let p ppf v = if v = 0 then Format.fprintf ppf "null" else Format.fprintf ppf "#%d" v in
  match op with
  | Declare { local } -> Format.fprintf ppf "declare x%d" local
  | Retire { local } -> Format.fprintf ppf "retire x%d" local
  | Get { local; ptr } -> Format.fprintf ppf "get x%d -> %a" local p ptr
  | Load { cell; local; ptr } ->
      Format.fprintf ppf "load c%d -> x%d (= %a)" cell local p ptr
  | Store { cell; ptr } -> Format.fprintf ppf "store c%d <- %a" cell p ptr
  | Store_alloc { cell; local } ->
      Format.fprintf ppf "store_alloc c%d <- x%d" cell local
  | Copy { local; ptr } -> Format.fprintf ppf "copy x%d <- %a" local p ptr
  | Set_null { local } -> Format.fprintf ppf "set_null x%d" local
  | Cas { cell; old_ptr; new_ptr; ok } ->
      Format.fprintf ppf "cas c%d %a->%a : %b" cell p old_ptr p new_ptr ok
  | Dcas { cell0; cell1; old0; old1; new0; new1; ok } ->
      Format.fprintf ppf "dcas c%d,c%d (%a,%a)->(%a,%a) : %b" cell0 cell1 p
        old0 p old1 p new0 p new1 ok
  | Dcas_ptr_val { ptr_cell; val_cell; old_ptr; new_ptr; ok } ->
      Format.fprintf ppf "dcas_ptr_val c%d,c%d %a->%a : %b" ptr_cell val_cell
        p old_ptr p new_ptr ok
  | Alloc { local; ptr; layout } ->
      Format.fprintf ppf "alloc[%s] -> x%d (= %a)" layout local p ptr
  | Try_alloc { local; ptr; ok } ->
      Format.fprintf ppf "try_alloc -> x%d (= %a) : %b" local p ptr ok
  | Flush -> Format.fprintf ppf "flush"
  | Read_val { cell; v } -> Format.fprintf ppf "read_val c%d -> %d" cell v
  | Write_val { cell; v } -> Format.fprintf ppf "write_val c%d <- %d" cell v
  | Cas_val { cell; ok } -> Format.fprintf ppf "cas_val c%d : %b" cell ok
  | Branch { index; kind; arity; choice } ->
      Format.fprintf ppf "branch[%d] %s %d/%d" index (dkind_name kind) choice
        arity

let op_to_string op = Format.asprintf "%a" pp_op op

let status_to_string = function
  | Completed -> "completed"
  | Infeasible msg -> "infeasible: " ^ msg
  | Decision_limit -> "decision-limit"
  | Bypass op -> "lfrc-bypass: " ^ op

(** Compact signature of a path's decision vector, used by the enumerator
    to deduplicate forced prefixes that clamp to the same execution. *)
let decision_signature decisions =
  String.concat ","
    (List.map (fun (_, _, choice) -> string_of_int choice) decisions)
