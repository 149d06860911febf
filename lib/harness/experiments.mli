(** The experiment registry: every table in EXPERIMENTS.md is regenerated
    by one entry here, through [lfrc_cli experiments]; [test/golden] pins
    the counters of every entry but E6 and E10 at a small config.

    Every experiment runs under a shared {!Scenario.config}; alongside its
    table it returns the {!Lfrc_obs.Metrics} snapshot gathered from the
    environments it created, which {!render} prints after the table. *)

type experiment = {
  id : string;  (** "E1" .. "E11" *)
  title : string;
  run : Scenario.config -> Common.result;
}

val all : experiment list

val find : string -> experiment option
(** Case-insensitive lookup by id. *)

val render : id:string -> csv:bool -> Common.result -> string
(** Experiment [id]'s result as {!run_ids} prints it: the table's CSV
    and nothing else, or the aligned table, its notes, and the
    [\[Ek metrics\]] JSON, [\[Ek contention\]] and [\[Ek blame\]]
    blocks of the layers that are on. *)

val run_ids : ?config:Scenario.config -> ?csv:bool -> string list -> bool
(** Resolve each id with {!find} (reporting unknown ids on stderr), then
    run the rest, printing each one's title line and {!render}ing;
    [false] when any id was unknown. [config] defaults to
    {!Scenario.default_config}. *)
