(** Affine constraints [e <= 0] or [e = 0]. *)

open Numeric

type op = Le | Eq

type t
(** Hash-consed: structurally equal constraints (after {!make}'s
    normalization) are the same value with the same {!id}. *)

val make : Expr.t -> op -> t
(** Normalizes coefficients: scaled to coprime integers, and for [Eq] the
    leading coefficient is made positive. *)

val le : Expr.t -> Expr.t -> t
(** [le a b] is [a - b <= 0], i.e. [a <= b]. *)

val ge : Expr.t -> Expr.t -> t
val eq : Expr.t -> Expr.t -> t

val between : Expr.t -> lo:int -> hi:int -> t list
(** The closed-interval box [lo <= e <= hi] as its two inequalities (the
    shape declared index-array bounds refine MESSY subscripts into). *)

val expr : t -> Expr.t
val op : t -> op

val id : t -> int
(** Unique intern id (equality/memo keys only; never ordering or
    persistence — see {!Expr.id}). *)

val is_trivial : t -> bool option
(** For a constant constraint, [Some true] if always satisfied, [Some false]
    if unsatisfiable; [None] if the constraint mentions variables. *)

val subst : Var.t -> Expr.t -> t -> t

val map_vars : (Var.t -> Var.t) -> t -> t
(** Rename variables; the result is re-normalized. *)

val reintern : (Expr.t -> Expr.t) -> t -> t
(** [reintern expr c] is the canonical value of a deserialized constraint
    whose expression [expr] re-interns ({!Expr.reintern}, possibly
    memoized).  A stored constraint is already normalized and its
    variables keep their ids, so it is not normalized again. *)

val holds : (Var.t -> Rat.t) -> t -> bool

val vars : t -> Var.t list
val mem : Var.t -> t -> bool

val equal : t -> t -> bool
(** One integer comparison (intern ids). *)

val compare : t -> t -> int
(** Structural order (scheduling-independent). *)

val pp : Format.formatter -> t -> unit
