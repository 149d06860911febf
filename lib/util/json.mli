(** The one JSON writer.

    The dependency budget has no JSON library. Every JSON document the
    repo prints (metrics snapshots, chrome traces, profile, blame,
    analyzer and sanitizer reports) is built as a {!t} and printed by
    {!to_string}, so framing, key quoting and string escaping live here
    and each writer states only its fields. Nothing in the repo reads
    JSON back. *)

type t =
  | Int of int
  | Num of string
      (** A number already formatted by the caller, printed verbatim:
          each writer keeps its own rule ([%.4f], [%.6g], ...). *)
  | Bool of bool
  | String of string
  | Array of t list
  | Object of (string * t) list  (** Fields print in list order. *)

val to_string : t -> string
(** Compact form: no whitespace between tokens. Strings and keys escape
    double quote, backslash and newline with a backslash and every other
    control character as [\u00XX]; other bytes, UTF-8 included, pass
    through. *)
