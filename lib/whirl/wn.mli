(** WHIRL nodes (WN).

    The tree mirrors the fields the paper lists in Table I: operator, kid
    count, linenum, offset, element size, number of dimensions, array
    dimensions/indices/base, 64-bit integer constant, ST index.  The
    [OPR_ARRAY] operator follows the WHIRL convention exactly (Section
    IV-C): it is n-ary with [kid_count = 1 + 2n]; kid 0 is the base address,
    kids 1..n the dimension sizes, kids n+1..2n the index expressions
    adjusted to zero lower bound, in row-major order; the address it denotes
    is [base + z * sum_i (y_i * prod_{j>i} h_j)]. *)

type operator =
  | OPR_FUNC_ENTRY
  | OPR_BLOCK
  | OPR_DO_LOOP  (** kids: idname, init, upper-bound, step, body *)
  | OPR_WHILE_DO (** kids: cond, body *)
  | OPR_IF       (** kids: cond, then-block, else-block *)
  | OPR_STID     (** scalar store; st_idx = target, kid 0 = rhs *)
  | OPR_LDID     (** scalar load; st_idx = source *)
  | OPR_ISTORE   (** kids: rhs, address (an ARRAY) *)
  | OPR_ILOAD    (** kid: address (an ARRAY) *)
  | OPR_ARRAY
  | OPR_COIDX    (** remote coarray address: kids = [ARRAY; image-expr]
                     (the future-work PGAS extension) *)
  | OPR_LDA      (** address of symbol st_idx *)
  | OPR_IDNAME   (** loop induction variable; st_idx *)
  | OPR_CALL     (** st_idx = callee entry; kids = PARM *)
  | OPR_PARM
  | OPR_INTCONST
  | OPR_CONST    (** floating constant *)
  | OPR_STRCONST
  | OPR_ADD | OPR_SUB | OPR_MPY | OPR_DIV | OPR_MOD | OPR_NEG
  | OPR_EQ | OPR_NE | OPR_LT | OPR_LE | OPR_GT | OPR_GE
  | OPR_LAND | OPR_LIOR | OPR_LNOT
  | OPR_INTRINSIC_OP (** intrinsic call; intrinsic name in [str_val] *)
  | OPR_RETURN   (** optional value kid *)
  | OPR_IO       (** print; kids = PARM *)
  | OPR_NOP

type t = {
  operator : operator;
  kids : t array;
  linenum : Lang.Loc.t;
  offset : int;
  elem_size : int;  (** ARRAY: element size in bytes; negative would mark a
                        non-contiguous (F90) array, per the WHIRL spec *)
  const_val : int;
  flt_val : float;
  str_val : string;
  st_idx : int;     (** -1 when absent *)
  res : Lang.Ast.dtype option;  (** result type *)
}

val kid_count : t -> int
val kid : t -> int -> t

val num_dim : t -> int
(** For [OPR_ARRAY]: inferred from kid-count shifted right by 1. *)

val array_base : t -> t
val array_dim : t -> int -> t
(** [array_dim w i] — size of dimension [i] (0-based, row-major). *)

val array_index : t -> int -> t
(** [array_index w i] — zero-based index expression for dimension [i]. *)

(** {2 Constructors} *)

val intconst : ?loc:Lang.Loc.t -> int -> t
val fltconst : ?loc:Lang.Loc.t -> float -> t
val strconst : ?loc:Lang.Loc.t -> string -> t
val ldid : ?loc:Lang.Loc.t -> res:Lang.Ast.dtype -> int -> t
val stid : ?loc:Lang.Loc.t -> int -> t -> t
val lda : ?loc:Lang.Loc.t -> int -> t

val array :
  ?loc:Lang.Loc.t -> elem_size:int -> base:t -> dims:t list -> t list -> t
(** Last argument: the index expressions.
    @raise Invalid_argument when sizes and indices lengths differ. *)

val coidx : ?loc:Lang.Loc.t -> array:t -> t -> t
(** Last argument: the image expression. *)

val iload : ?loc:Lang.Loc.t -> res:Lang.Ast.dtype -> t -> t
val istore : ?loc:Lang.Loc.t -> rhs:t -> t -> t

val binop : ?loc:Lang.Loc.t -> operator -> t -> t -> t
val unop : ?loc:Lang.Loc.t -> operator -> t -> t
val intrinsic : ?loc:Lang.Loc.t -> string -> t list -> t
val block : ?loc:Lang.Loc.t -> t list -> t
val do_loop :
  ?loc:Lang.Loc.t -> ivar:int -> init:t -> upper:t -> step:t -> t -> t

val while_do : ?loc:Lang.Loc.t -> cond:t -> t -> t
val if_then_else : ?loc:Lang.Loc.t -> cond:t -> then_:t -> t -> t

val call : ?loc:Lang.Loc.t -> callee:int -> t list -> t
val parm : t -> t
val return_ : ?loc:Lang.Loc.t -> t option -> t
val io : ?loc:Lang.Loc.t -> t list -> t
val nop : ?loc:Lang.Loc.t -> unit -> t
val func_entry : ?loc:Lang.Loc.t -> st:int -> t -> t

(** {2 Traversal} *)

val preorder : (t -> unit) -> t -> unit
(** Visits every node, parents before kids, left to right — the order
    Algorithm 1 walks the tree in. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

val count : (t -> bool) -> t -> int

val equal_tree : t -> t -> bool
(** Structural equality ignoring source locations. *)

val operator_name : operator -> string
val pp : Format.formatter -> t -> unit
(** Indented tree dump, ixwhirl-style. *)
