(** Affine expressions [sum_i c_i * v_i + c0] with exact rational
    coefficients. *)

open Numeric

type t
(** Immutable and hash-consed: structurally equal expressions are the same
    value with the same {!id}.  Variables with zero coefficient are never
    stored. *)

val zero : t
val const : Rat.t -> t
val of_int : int -> t
val var : Var.t -> t
val monom : Rat.t -> Var.t -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Rat.t -> t -> t
val add_const : Rat.t -> t -> t

val coeff : Var.t -> t -> Rat.t
val constant : t -> Rat.t

val vars : t -> Var.t list
(** In increasing variable order. *)

val mem : Var.t -> t -> bool
val is_const : t -> bool

val subst : Var.t -> t -> t -> t
(** [subst v e t] replaces [v] by [e] in [t]. *)

val reintern : t -> t
(** The canonical value of a deserialized expression whose variables are
    the live ones (same ids and names, as every engine cache hit's are):
    its content and stored {!hash} are kept, only the intern id is looked
    up. *)

val eval : (Var.t -> Rat.t) -> t -> Rat.t
(** @raise Not_found if the valuation lacks a variable of [t]. *)

val fold : (Var.t -> Rat.t -> 'a -> 'a) -> t -> 'a -> 'a

val denominator_lcm : t -> int
(** Positive lcm of all coefficient denominators (including the constant). *)

val id : t -> int
(** Unique intern id of this content (positive).  Allocation-order
    dependent: valid for equality and memo keys within the process, never
    for ordering or persistence. *)

val hash : t -> int
(** Precomputed structural hash (O(1)). *)

val equal : t -> t -> bool
(** One integer comparison (intern ids). *)

val compare : t -> t -> int
(** Structural order (scheduling-independent), with an id fast path for the
    equal case. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
