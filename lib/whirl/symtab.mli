(** WHIRL symbol tables: the TY table (types) and ST table (symbols).

    WHIRL nodes refer to symbols through [ST_IDX] and to types through
    [TY_IDX] (paper, Section IV-B); the region extractor reads array
    attributes -- element size, data type, dimension sizes, total size,
    memory location -- from here, never from the AST. *)

type ty_idx = int
type st_idx = int

type ty_kind =
  | Ty_scalar of Lang.Ast.dtype
  | Ty_array of {
      elem : Lang.Ast.dtype;
      dims : (int option * int option) list;
          (** source-order [lo, hi]; [None] when symbolic/assumed *)
      contiguous : bool;
          (** false for F90 assumed-shape arrays; {!elem_size} is then
              negative, per the WHIRL convention the paper relies on to
              "detect whether the array in Fortran90 is non-contiguous" *)
    }

type storage =
  | Sclass_auto            (** procedure-local *)
  | Sclass_formal
  | Sclass_common of string  (** COMMON block / C file scope *)
  | Sclass_text            (** procedure entry symbols *)

type st_entry = {
  st_name : string;
  st_ty : ty_idx;
  st_sclass : storage;
  st_loc : Lang.Loc.t;
  st_iprop : Lang.Iprop.t;
      (** declared index-array properties; {!Lang.Iprop.none} for ordinary
          symbols.  Serialized with the symtab (and folded into the engine's
          content keys: editing a directive re-analyzes its users). *)
  mutable st_mem_loc : int;  (** virtual address assigned by {!Layout} *)
}

type t

val create : unit -> t

val intern_ty : t -> ty_kind -> ty_idx
(** Structurally interned: equal kinds share an index. *)

val ty : t -> ty_idx -> ty_kind

val enter_st :
  t ->
  ?iprop:Lang.Iprop.t ->
  name:string ->
  ty:ty_idx ->
  sclass:storage ->
  loc:Lang.Loc.t ->
  unit ->
  st_idx
val st : t -> st_idx -> st_entry
val find_st : t -> string -> st_idx option
(** Lookup by name; with both scopes in one table per PU, names are unique
    within a procedure's view. *)

val st_count : t -> int
val iter_st : t -> (st_idx -> st_entry -> unit) -> unit

val elem_size : t -> ty_idx -> int
(** Element size in bytes for arrays, scalar size for scalars; negative for
    non-contiguous arrays (the magnitude is the true size). *)

val dtype_of_ty : t -> ty_idx -> Lang.Ast.dtype

val total_elems : t -> ty_idx -> int
(** Product of known dimension extents; 0 when any extent is unknown (the
    paper: "For variable length arrays, the size of entire array will be
    displayed as zero"). *)

val size_bytes : t -> ty_idx -> int
(** [total_elems * elem_size]; 0 for variable-length arrays. *)
