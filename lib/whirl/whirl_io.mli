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

val add_pu_content : Buffer.t -> Ir.module_ -> Ir.pu -> unit
(** Appends a compact binary image of everything {!pu_to_string} would
    serialize (header, formals, local symbol table including [Mem_Loc]s,
    the WN tree).  Same content, same bytes — but an order of magnitude
    cheaper to produce, which matters because the engine re-images every PU
    on every invocation to probe its cache.  Never parsed, only hashed. *)

val symtab_digest : Symtab.t -> Digest.t

val parse : string -> (Ir.module_, string) result
(** The reconstructed module carries a stub semantic program (empty
    procedure bodies, correct kinds and files): enough for the analysis,
    the interpreter, and the writers, but not for re-running Sema. *)

val save : path:string -> Ir.module_ -> unit
val load : path:string -> (Ir.module_, string) result
