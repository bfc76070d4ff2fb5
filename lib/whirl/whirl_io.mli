(** WHIRL file serialization — the analog of Open64's [.B] files: "The
    front-ends generate a WHIRL file that consists of WHIRL instructions and
    WHIRL symbol tables" (paper, Section IV-B).  [uhc --emit-whirl] writes
    one, and analysis can start from it instead of source, which is exactly
    how the real pipeline decouples front ends from IPA.

    One binary encoding serves every use: the {e content image}.  A PU's
    image is a prefix (header, formals, local symbol table) followed by its
    tree part (every node's ten fields, preorder, floats as their bits).
    The engine's content digests hash it ({!pu_digest}), the frontend cache
    stores a file's tree parts ({!encode_trees}, {!decode_trees}), and a
    [.B] file is a module's images:

    - a magic and a version byte;
    - the global symbol table, procedure entry locations included;
    - per PU, a marker byte, its prefix and its tree part;
    - an end marker, then the MD5 of every byte before it.

    No image holds a [Mem_Loc]: {!Layout} derives them from the tables and
    the PU positions, and {!parse} runs it.  Text [.B] files of older
    builds are not read: {!parse} answers them with an [Error]. *)

type scratch
(** A reusable buffer that content images are built in.  Not shareable
    between domains: callers keep one per domain. *)

val scratch : unit -> scratch

val pu_digest : scratch -> Ir.module_ -> Ir.pu -> Digest.t
(** The digest of the PU's content image, built in the given scratch
    buffer and hashed in place.  It holds no [Mem_Loc], so it is the same
    before and after layout, and it compares location file names by value,
    so it does not depend on how the tree's nodes share strings. *)

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

val write : Ir.module_ -> string
(** The module's [.B] image (layout above). *)

val parse : string -> (Ir.module_, string) result
(** Reads back what {!write} wrote and runs {!Layout.assign} on it.  The
    module carries a stub semantic program (empty procedure bodies,
    correct kinds, files and order): enough for the analysis, the
    interpreter, and the writers, but not for re-running Sema.  Total: a
    foreign, truncated or altered image is an [Error], never an exception
    (the trailing MD5 rejects a damaged file before it is decoded). *)

val save : path:string -> Ir.module_ -> unit
val load : path:string -> (Ir.module_, string) result
