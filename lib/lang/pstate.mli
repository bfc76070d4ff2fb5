(** Token stream and cursor shared by both lexers and both recursive-descent
    parsers.

    A lexer fills a stream ({!lexing}, {!push}); the parser then reads it
    through the cursor functions.  The stream is two arrays: the token
    values, and each token's line and column side by side in an [int array].
    A token carries no {!Loc.t}: {!loc} builds one only when a parser asks
    for it.  The arrays belong to the calling domain and are reused by
    every stream that domain lexes, so lexing a file allocates only the
    tokens' own payloads (identifier and literal values). *)

type t

val lexing : file:string -> t
(** An empty stream over the calling domain's token arrays.  It is valid
    until the next [lexing] call on the same domain: lex and parse one file
    before starting the next. *)

val push : t -> Token.t -> line:int -> col:int -> unit
(** Appends a token starting at [line], [col] (both 1-based). *)

val of_list : file:string -> (Token.t * int * int) list -> t
(** A stream over its own arrays, from (token, line, column) triples. *)

val peek : t -> Token.t
val peek2 : t -> Token.t
(** Token after the next one ({!Token.Eof} when exhausted). *)

val loc : t -> Loc.t
(** Location of the next token ({!Loc.dummy} past the end). *)

val next : t -> Token.t
(** Consumes and returns the next token. *)

val skip : t -> unit

val accept : t -> Token.t -> bool
(** Consumes the next token iff it equals the given one. *)

val expect : t -> Token.t -> unit
(** @raise Diag.Frontend_error when the next token differs. *)

val expect_ident : t -> string
(** Consumes an identifier and returns its text. *)

val error : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
