(** Front-end driver: picks the parser by file extension and runs semantic
    analysis over a set of source files, mirroring how OpenUH's GNU front
    ends feed IPL with one summary per compilation unit. *)

val parse_file : string -> Ast.unit_
(** Dispatch on extension: [.f], [.f77], [.f90] to MiniF; [.c] to MiniC.
    @raise Diag.Frontend_error on unknown extensions or syntax errors. *)

val parse_string : file:string -> string -> Ast.unit_
(** Same dispatch, on an in-memory buffer whose [file] name carries the
    extension. *)

val load : files:(string * string) list -> Sema.program
(** [(name, contents)] pairs through parse + sema ({!Sema.analyze}).  The
    engine's cached frontend ([Frontend_cache]) runs the same per-file
    functions and must build the same program. *)
