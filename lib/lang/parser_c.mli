(** Recursive-descent parser for the MiniC subset.

    Supported: file-scope declarations (become globals), [#define] constants,
    [#include] (ignored), function definitions, block-local declarations with
    optional initializers, [if]/[else], [while], [for] (canonical
    [for (i = e1; i <op> e2; i++/i--/i+=c)] loops are normalized to
    {!Ast.Do}; anything else becomes {!Ast.While}), [return], assignment
    (including [+=]-family and [++]/[--]), calls, and [printf] (mapped to
    {!Ast.Print}).  Array indexing [a[i][j]] parses to {!Ast.Array_ref} with
    the declared 0-based bounds preserved. *)

val parse : file:string -> string -> Ast.unit_
(** Lexes and parses one file.
    @raise Diag.Frontend_error on syntax errors. *)

val parse_tokens : file:string -> string -> Pstate.t -> Ast.unit_
(** [parse_tokens ~file src p] parses the tokens [p] holds, lexed from
    [src] ({!parse} is [parse_tokens ~file src (tokenize ~file src)]); the
    source itself is read only for index-array directives. *)
