(** WHIRL file serialization — the analog of Open64's [.B] files: "The
    front-ends generate a WHIRL file that consists of WHIRL instructions and
    WHIRL symbol tables" (paper, Section IV-B).  [uhc --emit-whirl] writes
    one, and analysis can start from it instead of source, which is exactly
    how the real pipeline decouples front ends from IPA.

    The format is a line-oriented text dump: the global symbol table, then
    each PU with its local table, formals, and its WN tree in preorder with
    explicit depths.  Everything a WN carries (Table I's fields) round-trips
    bit-exactly; floats are written in hexadecimal notation. *)

val write : Ir.module_ -> string

val pu_to_string : Ir.module_ -> Ir.pu -> string
(** The serialized block of one PU exactly as it appears inside {!write}:
    header, formals, local symbol table (including [Mem_Loc]s), and the WN
    tree.  Because the format round-trips bit-exactly, this string is a
    faithful content key for the PU. *)

val pu_digest : Buffer.t -> Ir.module_ -> Ir.pu -> Digest.t
(** The digest of a compact binary image of everything {!pu_to_string}
    serializes (header, formals, local symbol table, the WN tree) except
    the [Mem_Loc]s, which {!Layout} derives from the local table and the
    PU's module position.  So the digest is the same before and after
    layout.  The image is built in the given buffer, which is cleared
    first: callers reuse one per domain.  An order of magnitude cheaper
    than {!pu_to_string}; never parsed, only hashed. *)

val symtab_digest : Symtab.t -> Digest.t
(** Like {!pu_digest}, over a symbol table alone ([Mem_Loc]s left out, and
    the location of every procedure entry symbol: where a file defines a
    procedure is no analysis input, so inserting a line in one file keeps
    the global table's digest). *)

val parse : string -> (Ir.module_, string) result
(** The reconstructed module carries a stub semantic program (empty
    procedure bodies, correct kinds and files): enough for the analysis,
    the interpreter, and the writers, but not for re-running Sema. *)

val save : path:string -> Ir.module_ -> unit
val load : path:string -> (Ir.module_, string) result
