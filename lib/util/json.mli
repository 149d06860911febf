(** Minimal JSON support: the string escaper every writer shares, and a
    reader for the benchmark baselines.

    The dependency budget has no JSON library. Each JSON {e writer}
    (metrics snapshots, chrome traces, profile, blame, analyzer and
    sanitizer reports, bench files) prints its own structure and quotes
    every string through {!escape}; [bench --compare] needs the matching
    {e reader} to diff a fresh run against a committed baseline. This is
    a small strict
    recursive-descent parser over the subset those writers emit — which
    is to say all of RFC 8259 except [\uXXXX] surrogate pairs (decoded
    as-is into the raw code unit's UTF-8 bytes). Numbers are [float]s,
    matching the writers' output. Not a streaming parser; inputs are a
    few hundred KB at most. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** fields in document order *)

val parse : string -> (t, string) result
(** [parse s] reads exactly one JSON value (trailing whitespace allowed).
    The error string carries the byte offset of the failure. *)

val parse_file : string -> (t, string) result
(** [parse] of the file's contents; [Error] also covers I/O failure. *)

(** {2 Focused accessors}

    Total functions used to walk a parsed baseline; each returns [None]
    on a shape mismatch so comparison code degrades field-by-field
    instead of raising mid-report. *)

val member : string -> t -> t option
(** Field of an [Obj], [None] otherwise. *)

val path : string list -> t -> t option
(** Nested [member]. *)

val to_num : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

val obj_fields : t -> (string * t) list
(** Fields of an [Obj], [[]] for any other constructor. *)

(** {2 Writing} *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the surrounding
    quotes: double quote, backslash and newline get backslash escapes,
    every other control character a [\u00XX] escape. *)
