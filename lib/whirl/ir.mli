(** Whole-program WHIRL container.

    Like OpenUH, there is one global symbol table (COMMON blocks, C
    file-scope arrays, procedure entry symbols) and one local table per
    program unit (formals and locals).  WN nodes store a single [st_idx]
    integer; indices at or above {!global_base} address the global table.
    This keeps [Mem_Loc] of a global array identical in every procedure that
    touches it, which is what lets Dragon users "find arrays pointing to the
    same memory location". *)

type body
(** A PU's WN tree, in hand or deferred: read through {!body} only. *)

type pu = {
  pu_name : string;
  pu_st : int;  (** global-encoded index of the entry symbol *)
  pu_formals : Symtab.st_idx list;  (** local indices, parameter order *)
  pu_body : body;  (** an [OPR_FUNC_ENTRY]: see {!body} *)
  pu_symtab : Symtab.t;
  pu_loc : Lang.Loc.t;
  pu_file : string;
  pu_object : string;
  pu_lang : Lang.Ast.language;
}

type module_ = {
  m_global : Symtab.t;
  m_pus : pu list;
  m_program : Lang.Sema.program;
      (** procedure headers ({!Lang.Sema.header}: kind, location, file,
          object), globals, files and warnings; no AST bodies *)
}

val body : pu -> Wn.t
(** The PU's WN tree: the one way to read a body.  A deferred body is
    loaded on the first call for any PU of its group (see {!deferred}) and
    kept; later calls, from any domain, return the same tree. *)

val tree : Wn.t -> body
(** A body in hand. *)

val with_body : pu -> Wn.t -> pu
(** [pu] with its body replaced by a tree in hand. *)

val deferred : int -> (unit -> Wn.t array) -> body list
(** [deferred n load]: [n] bodies read together — one source file's, as
    the cached frontend returns them.  [load] runs at most once, the first
    time {!body} asks for any of them (under a lock, so concurrent askers
    on several domains wait for one load), and must return [n] trees in
    order.  If [load] raises, the exception reaches that caller and the
    next {!body} call loads again. *)

val global_base : int

val encode_global : Symtab.st_idx -> int
val is_global_idx : int -> bool

val st_entry : module_ -> pu -> int -> Symtab.st_entry
(** Resolve a WN [st_idx] against the right table. *)

val ty_of : module_ -> pu -> int -> Symtab.ty_kind
val st_name : module_ -> pu -> int -> string

val find_pu : module_ -> string -> pu option
(** A scan of [m_pus]: fine for one lookup, linear per call. *)

val pu_index : module_ -> string -> pu option
(** [pu_index m] builds a name table over [m_pus] once and returns its
    constant-time lookup, agreeing with {!find_pu} (the first PU of a
    name wins).  Build it once per pass over many call sites or tables;
    it does not follow later changes to [m_pus]. *)

val pu_count : module_ -> int
