(** Lexer for the MiniF Fortran subset.

    Free-form-ish: statements end at end of line, [&] at end of line
    continues onto the next, [!] starts a comment anywhere, and a [c], [C]
    or [*] in column 1 followed by a blank (or end of line) comments the
    whole line, as in fixed-form Fortran.  Identifiers and keywords are
    lowercased.  Dotted operators ([.lt.], [.and.], ...) are canonicalized
    to the symbolic spellings; [1.0d0]-style doubles are recognized.

    Tokens go into the calling domain's {!Pstate} arrays, with their line
    and column: no location record and no list cell per token, and every
    punctuation token is a shared constant. *)

val tokenize : file:string -> string -> Pstate.t
(** The file's tokens, ending with {!Token.Eof}, as a stream valid until
    the next {!Pstate.lexing} on this domain.
    @raise Diag.Frontend_error on an unrecognized character. *)
