(** Viewer for [uhc --report] JSON files: parse the schema-versioned
    report dump and render the same aligned tables [uhc --analyses]
    prints.  Dragon reads the serialized shape with {!Obs.Json}, so the
    viewer works on report files from any producer that follows the
    schema (see README, "Client analyses"). *)

type report = {
  rv_analysis : string;  (** client name, e.g. ["bounds"] *)
  rv_summary : (string * string) list;  (** headline counters, in order *)
  rv_columns : string list;
  rv_rows : string list list;  (** every row matches [rv_columns] width *)
}

type t = { rv_schema_version : int; rv_reports : report list }

val parse : string -> (t, string) result
(** Rejects missing/unknown [schema_version], missing [reports], and rows
    whose width disagrees with their columns. *)

val parse_file : path:string -> (t, string) result

val render : ?only:string -> t -> string
(** All reports in file order, or just the analysis named [only]. *)

val names : t -> string list
(** Analysis names present, in file order. *)
