(** The versioned results surface every client analysis reports through.

    A report is one table plus a few scalar summary facts; a run of the
    pipeline yields one report per selected client.  The JSON rendering is
    deterministic (insertion order everywhere, no timestamps, no wall-clock
    numbers) so that reports are byte-identical at any [--jobs] setting —
    the same contract the [.rgn]/[.dgn] outputs honor. *)

val schema_version : int
(** Version stamped into the top-level JSON object.  Bump on any change to
    the shape below; {!parse} rejects unknown or missing versions. *)

type t = {
  r_analysis : string;  (** client name, e.g. ["bounds"] *)
  r_summary : (string * string) list;
      (** ordered scalar facts, e.g. [("safe", "12")] *)
  r_columns : string list;
  r_rows : string list list;  (** each row has [List.length r_columns] cells *)
}

val make :
  analysis:string ->
  summary:(string * string) list ->
  columns:string list ->
  string list list ->
  t
(** @raise Invalid_argument on an empty [analysis] name, no [columns], or
    a row whose width disagrees with [columns]: what {!parse} rejects. *)

val json : t list -> Rgnfile.Files.text
(** The reports file, produced row by row. *)

val json_of_reports : t list -> string
(** [{"schema_version": N, "reports": [{"analysis": ..., "summary": {...},
    "columns": [...], "rows": [[...] ...]}, ...]}] *)

val parse : string -> (t list, string) result
(** The reports of a {!json} file, in file order: the one reader of the
    format ([dragon report], [bench check-json]).  Rejects a missing or
    unknown [schema_version], a missing [reports] array, and any report
    {!make} would reject or whose summary values, columns or cells are not
    strings.  {!json} of the result is the same bytes. *)

val save : path:string -> t list -> unit
(** Streams {!json} (reports in the given order) through
    {!Rgnfile.Files.save_text}: an identical file is left untouched. *)

val render : Format.formatter -> t -> unit
(** Human-readable table: title, summary line, then aligned columns.  The
    lines are emitted as newline-separated text followed by one cut, so
    print them in a vertical box opened at column 0 (as
    [Format.printf "@[<v>%a@]@?"] does); an enclosing box's indentation
    is not applied to them. *)
