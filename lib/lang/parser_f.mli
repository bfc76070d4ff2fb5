(** Recursive-descent parser for the MiniF Fortran subset.

    Supported constructs: [program] / [subroutine] / typed [function] units;
    type declarations (including [dimension] attributes, [a(lb:ub)] bounds,
    assumed-size [a(star)]); [common /blk/ names]; [parameter (n = e, ...)];
    [do] / [do while] / block and logical [if] / [call] / assignment /
    [return] / [print] / [continue] / [stop] statements; full expression
    grammar with Fortran operators.  Array references and function calls are
    both parsed as {!Ast.Array_ref}; {!Sema} disambiguates. *)

val parse : file:string -> string -> Ast.unit_
(** Lexes and parses one file.
    @raise Diag.Frontend_error on syntax errors. *)

val parse_tokens : file:string -> string -> Pstate.t -> Ast.unit_
(** [parse_tokens ~file src p] parses the tokens [p] holds, lexed from
    [src] ({!parse} is [parse_tokens ~file src (tokenize ~file src)]); the
    source itself is read only for index-array directives. *)
