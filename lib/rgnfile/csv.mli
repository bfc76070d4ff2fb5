(** The CSV encoding of the three file formats, appended straight into an
    output buffer: only fields that need it are double-quoted. *)

val add_field : Buffer.t -> string -> unit
(** The field, double-quoted (with doubled quotes) when it holds a comma,
    a quote or a newline. *)

val add_int : Buffer.t -> int -> unit
(** [string_of_int n], appended without building the string. *)

val add_record : Buffer.t -> string list -> unit
(** The fields, comma-separated, then a newline. *)
