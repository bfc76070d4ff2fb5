(** A minimal dependency-free JSON reader and writer.

    Just enough for the observability files this library emits (Chrome
    traces, metrics dumps, bench records, run-ledger records): the full
    JSON value grammar on the way in, and {!write}/{!render} for values
    built as [t] on the way out.  {!write} is compact (no whitespace);
    {!render_indented} lays a value out one member per line, the format of
    the committed [BENCH_*.json] records.  Chrome traces, whose event
    layout is part of their format, still fill a [Buffer] directly. *)

type t =
  | Obj of (string * t) list
  | List of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

val parse : string -> (t, string) result
(** The error string includes the byte offset of the failure.  String
    escapes are RFC 8259-strict: only the nine escape characters are
    accepted, [\uXXXX] decodes to UTF-8 (surrogate pairs combine into one
    supplementary-plane character), and a lone surrogate, bad hex digit or
    unknown escape character is a parse error. *)

val parse_file : string -> (t, string) result

val member : string -> t -> t option
(** Object field lookup; [None] on missing field or non-object. *)

val to_list : t -> t list option
val to_string : t -> string option
val to_float : t -> float option
val to_int : t -> int option

(** {1 Readers}

    Each format written on top of this module has one reader, beside its
    writer, built from these: the reader raises {!Malformed} at the first
    rule its input breaks, and {!decode} returns that message. *)

exception Malformed of string

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message. *)

val decode : (t -> 'a) -> string -> ('a, string) result
(** Parse the text and apply the reader; a parse error or {!Malformed}
    becomes [Error]. *)

val require_version : what:string -> int -> t -> unit
(** The value's [schema_version] member is the given integer, else
    {!Malformed} ["WHAT without schema_version"] or ["WHAT has unknown
    schema_version V (expected E)"]. *)

val write : Buffer.t -> t -> unit
(** Append [v] as compact JSON: members in list order, strings through
    {!add_escaped}, integral numbers below 1e15 without a fraction, other
    finite numbers with the fewest of 15 or 17 significant digits that read
    back to the same float, non-finite numbers as [null]. *)

val render : t -> string
(** {!write} into a fresh string. *)

val render_indented : t -> string
(** The fixed layout of committed records: two-space indentation, one
    member or element per line, [": "] after each key, empty lists and
    objects as [[]] and [{}], and a final newline.  Scalars print as in
    {!write}, so [parse] reads back the same value when every number is
    finite. *)

val escape : string -> string
(** Escape a string for embedding between double quotes in JSON output
    (shared by every emitter in the tree). *)

val add_escaped : Buffer.t -> string -> unit
(** [Buffer.add_string b (escape s)] without the intermediate string; a
    string with nothing to escape is copied in one block. *)
