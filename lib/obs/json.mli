(** A minimal dependency-free JSON reader and writer.

    Just enough for the observability files this library emits (Chrome
    traces, metrics dumps, bench records, run-ledger records): the full
    JSON value grammar on the way in, and {!write}/{!render} for values
    built as [t] on the way out.  The writer is compact (no whitespace);
    emitters whose layout is part of their format (the pretty-printed
    [BENCH_*.json] records, Chrome traces) still fill a [Buffer] directly. *)

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

val write : Buffer.t -> t -> unit
(** Append [v] as compact JSON: members in list order, strings through
    {!add_escaped}, integral numbers below 1e15 without a fraction, other
    finite numbers with the fewest of 15 or 17 significant digits that read
    back to the same float, non-finite numbers as [null]. *)

val render : t -> string
(** {!write} into a fresh string. *)

val escape : string -> string
(** Escape a string for embedding between double quotes in JSON output
    (shared by every emitter in the tree). *)

val add_escaped : Buffer.t -> string -> unit
(** [Buffer.add_string b (escape s)] without the intermediate string; a
    string with nothing to escape is copied in one block. *)
