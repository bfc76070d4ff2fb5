(** Lexer for the MiniC subset: C89-style tokens, [//] and [/* */] comments,
    [#define]/[#include] preprocessor lines are tokenized as a ["#"] punct
    followed by the directive tokens up to end of line, terminated by a
    {!Token.Newline} (the only place MiniC emits one).

    Tokens go into the calling domain's {!Pstate} arrays, with their line
    and column: no location record and no list cell per token, and every
    punctuation token is a shared constant. *)

val tokenize : file:string -> string -> Pstate.t
(** The file's tokens, ending with {!Token.Eof}, as a stream valid until
    the next {!Pstate.lexing} on this domain.
    @raise Diag.Frontend_error on an unrecognized character. *)
