(** Persistent per-system solver contexts: the learning layer under
    {!System}'s learned core.

    A context lives in the memo record of one interned system, beside that
    system's feasible and implies answers, and is shared by every worker
    domain.  It is created on the first learned implies, bounds or
    projection query against the system, counted in
    [Solver_stats.ctx_contexts].  A context accumulates
    {e derived facts} across queries on the same system — feasibility
    witnesses per direction (each reusable by a single rational
    comparison), the system's interval box, and exact projected variable
    bounds and projections.

    Every stored fact is exact, so contexts are pure caches: flushing them
    (what [System.clear_cache] does) is always sound and the
    answers produced through a context are byte-identical to the reference
    eliminator's. *)

open Numeric

type t

val create : unit -> t
(** A fresh, empty context. *)

(** {2 Cached interval box} *)

val box : t -> build:(unit -> Packed.box option) -> Packed.box option
(** The system's interval box, built at most once per context ([build] runs
    under the context lock on first use). *)

(** {2 Feasibility witnesses}

    A direction key is the gcd-normalized linear part [(ids, coeffs)] of a
    packed inequality row; the query value [q] is the row's (negated,
    gcd-scaled) constant, i.e. the question "is [sys /\ coeffs.x <= q]
    feasible?".  Feasibility is monotone in [q], so a [q] once found
    feasible answers every query on the direction with a larger or equal
    [q]. *)

val witnessed : t -> int array * int array -> Rat.t -> bool
(** [true] — a recorded feasible [q] is at most this one, so the query is
    feasible (counted as a bound hit); [false] — unknown, the caller must
    eliminate and, on a feasible outcome, {!learn_feasible}. *)

val learn_feasible : t -> int array * int array -> Rat.t -> unit
(** Record that the query [q] on this direction came out feasible. *)

(** {2 Exact projection memos} *)

val find_bounds : t -> int -> (Rat.t option * Rat.t option) option
val store_bounds : t -> int -> Rat.t option * Rat.t option -> unit
(** Memoized [System.bounds] results, keyed by [Var.id]. *)

val find_proj : t -> int list -> Constr.t list option
val store_proj : t -> int list -> Constr.t list -> unit
(** Memoized [System.project_onto] results, keyed by the sorted kept
    variable ids; the value is the canonical (normalized) constraint
    list. *)
