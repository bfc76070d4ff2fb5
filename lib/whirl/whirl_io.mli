(** WHIRL file serialization — the analog of Open64's [.B] files: "The
    front-ends generate a WHIRL file that consists of WHIRL instructions and
    WHIRL symbol tables" (paper, Section IV-B).  [uhc --emit-whirl] writes
    one, and analysis can start from it instead of source, which is exactly
    how the real pipeline decouples front ends from IPA.

    The format is a line-oriented text dump: the global symbol table, then
    each PU with its local table, formals, and its WN tree in preorder with
    explicit depths.  Everything a WN carries (Table I's fields) round-trips
    bit-exactly; floats are written in hexadecimal notation.

    A second, binary encoding is the {e content image} of a PU: what the
    engine's content digests hash ({!pu_digest}) and what the frontend
    cache stores a file's trees as ({!encode_trees}, {!decode_trees}). *)

val write : Ir.module_ -> string

val pu_to_string : Ir.module_ -> Ir.pu -> string
(** The serialized block of one PU exactly as it appears inside {!write}:
    header, formals, local symbol table (including [Mem_Loc]s), and the WN
    tree.  Because the format round-trips bit-exactly, this string is a
    faithful content key for the PU. *)

type scratch
(** A reusable buffer that content images are built in.  Not shareable
    between domains: callers keep one per domain. *)

val scratch : unit -> scratch

val pu_digest : scratch -> Ir.module_ -> Ir.pu -> Digest.t
(** The digest of a compact binary image of everything {!pu_to_string}
    serializes (header, formals, local symbol table, the WN tree) except
    the [Mem_Loc]s, which {!Layout} derives from the local table and the
    PU's module position.  So the digest is the same before and after
    layout.  The image is a prefix (header, formals, symbol table)
    followed by the tree part, built in the given scratch buffer and
    hashed in place.  An order of magnitude cheaper than
    {!pu_to_string}. *)

val encode_trees :
  scratch -> Ir.module_ -> Ir.pu list -> Digest.t list * string
(** [encode_trees s m pus]: each PU's {!pu_digest}, and the tree parts of
    their images concatenated in order.  Every image is encoded once, into
    [s], and the trees are copied out once: the frontend cache stores the
    string as a file's tree entry. *)

val decode_trees :
  scratch ->
  Ir.module_ ->
  (Ir.pu * Digest.t) list ->
  string ->
  (Wn.t array, string) result
(** [decode_trees s m pus image] reads back the trees {!encode_trees}
    wrote for [pus] (their bodies are not read): every field of every
    node.  Each tree is accepted only if its bytes, behind the prefix
    rebuilt from its PU, hash to the digest paired with it, so an [Ok]
    tree is the one that digest names.  Total: a truncated, altered or
    over-long image is an [Error], never an exception. *)

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
