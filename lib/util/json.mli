(** The string escaper every JSON writer shares.

    The dependency budget has no JSON library. Each JSON writer (metrics
    snapshots, chrome traces, profile, blame, analyzer and sanitizer
    reports) prints its own structure and quotes every string through
    {!escape}. Nothing in the repo reads JSON back. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the surrounding
    quotes: double quote, backslash and newline get backslash escapes,
    every other control character a [\u00XX] escape. *)
