(** Packed integer-row solver backing the fast query paths of {!System}.

    Constraints whose (already Constr-normalized) coefficients are machine
    integers pack into flat int arrays; Fourier-Motzkin elimination over the
    packed rows uses pure integer arithmetic and is exact: it decides
    rational feasibility, the same answer as the reference eliminator.  The
    one pruning it does is dominance (of two rows with the same coefficient
    vector it keeps the tighter constant).

    Any arithmetic overflow raises {!Numeric.Rat.Overflow}; callers fall
    back to the exact rational reference path. *)

exception Not_packable
(** A coefficient is not an integer (cannot happen for constraints built by
    [Constr.make], kept as a guard) or does not fit the packed range. *)

type row
type t = row array

val pack : Constr.t list -> t
(** @raise Not_packable if any coefficient is unsuitable. *)

val pack_constr : Constr.t -> row

(** {2 Row introspection}

    Read-only access for the learned solver contexts ({!Context}), which
    key their direction tables on a row's normalized linear part.  The
    returned arrays are the row's own — callers must not mutate them. *)

val row_ids : row -> int array
(** Strictly increasing variable ids. *)

val row_coeffs : row -> int array
(** Non-zero integer coefficients, parallel to [row_ids]. *)

val row_const : row -> int

val is_const : row -> bool
(** No variables: the row is a constant fact. *)

val const_infeasible : row -> bool
(** A constant row that is unsatisfiable on its own. *)

(** {2 Interval bounding boxes} *)

type box
(** Per-variable constant bounds extracted from the single-variable rows of
    a system: an over-approximation of the system's solution set. *)

val box_of : t -> box option
(** [None] when the constant and single-variable rows alone are already
    contradictory, i.e. the system is rationally infeasible. *)

val boxes_disjoint : box -> box -> bool
(** [true] means the two boxes — hence the two systems — share no rational
    point.  [false] is inconclusive. *)

val box_implies : box -> t -> bool
(** [box_implies box c]: the integer negation of every row of [c] is
    unsatisfiable over [box].  When [box] was built from a system [t], a
    [true] answer means [System.implies t c] holds.  [false] is
    inconclusive. *)

(** {2 Feasibility} *)

val feasible : t -> bool
(** Fourier-Motzkin feasibility over the packed rows: [true] iff the system
    has a rational solution.
    @raise Numeric.Rat.Overflow on integer overflow. *)
