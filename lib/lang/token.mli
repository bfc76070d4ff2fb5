(** Tokens shared by both front ends.  Keywords stay {!Ident}s; each parser
    recognizes its own keyword set (Fortran identifiers are lowercased by the
    lexer, so matching is effectively case-insensitive there). *)

type t =
  | Ident of string
  | Int of int
  | Float of float
  | String of string
  | Logic of bool   (** Fortran [.true.] / [.false.] *)
  | Punct of string (** operators and delimiters, canonical spelling *)
  | Newline         (** statement separator (Fortran EOL, C [;]) is NOT this;
                        only the Fortran lexer emits it *)
  | Eof

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
