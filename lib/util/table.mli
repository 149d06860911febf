(** Aligned plain-text tables, used by the experiment harness to print the
    rows recorded in EXPERIMENTS.md. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Rows must have as many entries as there are columns. *)

val add_rowf : t -> ('a, unit, string, unit) format4 -> 'a
(** [add_rowf t fmt ...] formats one string and splits it on ['|'] into
    cells — convenient for numeric rows. *)

val render : t -> string

val csv : t -> string
(** Comma-separated rendering (no escaping; cells must avoid commas). *)
