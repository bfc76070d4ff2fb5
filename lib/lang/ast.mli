(** Shared abstract syntax for the MiniF (Fortran-subset) and MiniC
    (C-subset) front ends.

    Both surface languages lower onto this single tree; the only
    language-specific fact that survives is {!Unit.language}, which the
    analysis uses to render bounds in the source language's indexing
    convention (the paper, Section V-B: "OpenUH uses (row major, zero
    indexing) for all languages ... we modify the bounds ... in Dragon"). *)

type language = Fortran | C

type dtype =
  | Int_t
  | Real_t       (** 4-byte float *)
  | Double_t
  | Char_t
  | Logical_t

val dtype_size : dtype -> int
(** Element size in bytes: int 4, real 4, double 8, char 1, logical 4. *)

val dtype_name : dtype -> string
(** The data-type string shown in the .rgn table ("int", "real", "double",
    "char", "logical"). *)

type binop =
  | Add | Sub | Mul | Div | Pow | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

type expr =
  | Int_lit of int
  | Real_lit of float
  | Str_lit of string
  | Logic_lit of bool
  | Var_ref of string * Loc.t
  | Array_ref of string * expr list * Loc.t
  | Coarray_ref of string * expr list * expr * Loc.t
      (** [x(i, j)[img]] — remote access to image [img] (Fortran 2008
          coarrays, the paper's future-work PGAS extension) *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call_expr of string * expr list * Loc.t

type lvalue =
  | Lvar of string * Loc.t
  | Larr of string * expr list * Loc.t
  | Lcoarr of string * expr list * expr * Loc.t

type stmt =
  | Assign of lvalue * expr * Loc.t
  | If of expr * stmt list * stmt list * Loc.t
  | Do of do_loop
  | While of expr * stmt list * Loc.t
  | Call of string * expr list * Loc.t
  | Return of expr option * Loc.t
  | Print of expr list * Loc.t
  | Nop of Loc.t

and do_loop = {
  do_var : string;
  do_lo : expr;
  do_hi : expr;
  do_step : expr option;  (** [None] means step 1 *)
  do_body : stmt list;
  do_loc : Loc.t;
}

(** Declared array dimension: [lower:upper].  C declarations [t a[n]] parse
    as [0:n-1].  [dim_hi = None] is an assumed-size dimension (Fortran
    [a(star)], C [a[]]); the paper displays such arrays with total size 0.
    [dim_assumed_shape] marks Fortran-90 [a(:)] dimensions: the array may be
    non-contiguous, which WHIRL encodes as a negative element size ("If it
    is negative, it specifies a non-contiguous array", paper Section IV-C). *)
type dim = { dim_lo : expr; dim_hi : expr option; dim_assumed_shape : bool }

type decl = {
  decl_name : string;
  decl_type : dtype;
  decl_dims : dim list;  (** empty for scalars *)
  decl_common : string option;  (** COMMON block name; [Some _] = global *)
  decl_coarray : bool;  (** declared with a codimension [[*]] *)
  decl_loc : Loc.t;
}

type proc_kind = Program | Subroutine | Function of dtype

type proc = {
  proc_name : string;
  proc_kind : proc_kind;
  proc_params : string list;
  proc_decls : decl list;
  proc_consts : (string * expr) list;  (** PARAMETER / #define constants *)
  proc_body : stmt list;
  proc_loc : Loc.t;
}

(** One compilation unit (one source file). *)
type unit_ = {
  unit_file : string;
  unit_language : language;
  unit_globals : decl list;  (** C file-scope declarations *)
  unit_consts : (string * expr) list;  (** [#define] constants *)
  unit_procs : proc list;
  unit_iprops : (string * Iprop.t) list;
      (** index-array property directives scanned from comments *)
}

val pp_expr : Format.formatter -> expr -> unit
val pp_stmt : Format.formatter -> stmt -> unit
