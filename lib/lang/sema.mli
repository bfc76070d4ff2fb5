(** Semantic analysis: merges compilation units into a whole program,
    resolves every name, disambiguates [a(i)] between array reference and
    function call (both parse as {!Ast.Array_ref} in MiniF), constant-folds
    declared bounds, and applies Fortran implicit typing to undeclared
    scalars.

    The result is the input the WHIRL lowering consumes; nothing downstream
    looks at raw names again. *)

module String_map : Map.S with type key = string

(** How a variable is stored; drives the paper's FORMAL/global-@ scoping. *)
type var_class =
  | Local
  | Formal
  | Global of string  (** COMMON block name / "global" for C file scope *)

type array_sig = {
  a_type : Ast.dtype;
  a_dims : (int option * int option) list;
      (** constant-folded [lo, hi] per dimension, [None] when symbolic or
          assumed-size (the paper displays total size 0 for those) *)
  a_coarray : bool;  (** declared with a codimension (Fortran 2008) *)
  a_contiguous : bool;
      (** false for assumed-shape [a(:)] arrays, which may be slices: WHIRL
          marks these with a negative element size *)
  a_iprop : Iprop.t;
      (** declared index-array properties ({!Iprop.none} when undeclared);
          COMMON redeclarations conjoin via {!Iprop.meet} *)
  a_decl_loc : Loc.t;
}

type symbol =
  | Sym_scalar of Ast.dtype * var_class
  | Sym_array of array_sig * var_class
  | Sym_const of int  (** PARAMETER / #define integer constant *)

type proc_info = {
  pi_proc : Ast.proc;  (** body rewritten: calls disambiguated *)
  pi_symbols : symbol String_map.t;
  pi_file : string;
  pi_object : string;  (** the .o name shown in the File column of .rgn *)
  pi_language : Ast.language;
}

val header : proc_info -> proc_info
(** The procedure's header: name, kind, location, file, object and
    language, with no parameters, declarations, constants, body or
    symbols.  What a module keeps once its procedures are lowered
    ({!Whirl.Lower.assemble}), and what the WHIRL reader rebuilds. *)

type program = {
  prog_procs : proc_info String_map.t;
  prog_order : string list;  (** procedure names in definition order *)
  prog_globals : (array_sig * string) String_map.t;
      (** global arrays: signature and owning block *)
  prog_global_scalars : (Ast.dtype * string) String_map.t;
  prog_files : string list;
  prog_warnings : Diag.t list;
}

val is_intrinsic : string -> bool

val analyze : Ast.unit_ list -> program
(** Whole-program analysis: {!interface} of every unit, {!link}, then
    {!check_unit} of every unit in order and {!finish}.
    @raise Diag.Frontend_error on semantic errors (rank mismatch,
    inconsistent COMMON declarations, calling a scalar, ...). *)

(** {2 Separate compilation}

    {!analyze} split at its unit boundaries, so a caller can reuse a
    unit's results across runs.  Pass 1 reads one unit alone and yields
    its {!interface}; {!link} merges the interfaces into the {!env} that
    pass 2 ({!check_unit}) reads.  A unit's {!body} depends on nothing
    but the unit itself and that environment — {!env_digest} names it. *)

type global_decl =
  | G_scalar of string * Ast.dtype * string  (** name, type, block *)
  | G_array of string * array_sig * string  (** name, signature, block *)

type interface = {
  if_file : string;
  if_globals : global_decl list;
      (** the unit's global registrations (COMMON members, C file scope),
          in declaration order *)
  if_procs : (string * Ast.proc_kind) list;  (** definition order *)
}

val interface : Ast.unit_ -> interface
(** Pass 1 over one unit; never raises. *)

type env = {
  env_globals : (array_sig * string) String_map.t;
  env_global_scalars : (Ast.dtype * string) String_map.t;
  env_procs : (string * Ast.proc_kind) list;
      (** every unit's procedures, in program order *)
}

val link : interface list -> env
(** Merge interfaces in unit order (COMMON redeclarations conjoin their
    {!Iprop} assertions).
    @raise Diag.Frontend_error on inconsistent COMMON declarations. *)

val env_digest : env -> Digest.t
(** Digest of a canonical image of the environment: every global array's
    full signature (including [a_decl_loc] and [a_iprop]) and block, the
    global scalars, and the ordered procedure names with their kinds.
    Independent of the maps' internal shape. *)

(** One unit's pass-2 result. *)
type body = {
  b_file : string;
  b_procs : proc_info list;  (** definition order *)
  b_warnings : Diag.t list;
}

type linker
(** The program being assembled from bodies, in unit order. *)

val linker : env -> linker

val check_unit : linker -> Ast.unit_ -> body
(** Pass 2 over one unit against the linker's environment; each checked
    procedure is added to the program at once.
    @raise Diag.Frontend_error on semantic errors and on a procedure
    already defined by an earlier unit. *)

val add_body : linker -> body -> unit
(** Add a body computed earlier (under the same {!env_digest}) in place of
    {!check_unit}.
    @raise Diag.Frontend_error on a duplicate procedure. *)

val finish : linker -> program
