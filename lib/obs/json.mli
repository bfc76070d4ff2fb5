(** A minimal dependency-free JSON reader.

    Just enough for the observability files this library emits (Chrome
    traces, metrics dumps, bench records): full JSON value grammar on the
    way in, no writer — emitters build their JSON with [Buffer] directly so
    the output formatting stays under their control. *)

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

val escape : string -> string
(** Escape a string for embedding between double quotes in JSON output
    (shared by every emitter in the tree). *)

val add_escaped : Buffer.t -> string -> unit
(** [Buffer.add_string b (escape s)] without the intermediate string; a
    string with nothing to escape is copied in one block. *)
