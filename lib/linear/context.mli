(** Persistent per-system solver contexts: the conflict-learning layer
    under {!System}'s learned core.

    A context lives in the memo record of one interned system, beside that
    system's feasible and implies answers, and is shared by every worker
    domain.  It is created on the first learned implies, bounds or
    projection query against the system, counted in
    [Solver_stats.ctx_contexts].  A context accumulates
    {e derived facts} across queries on the same system — learned
    direction thresholds (Farkas-style infeasibility certificates and
    feasibility witnesses, each reusable by a single rational comparison),
    exact projected variable bounds and projections, and MiniSat-style
    variable activity used to order Fourier-Motzkin eliminations.

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

(** {2 Direction thresholds}

    A direction key is the gcd-normalized linear part [(ids, coeffs)] of a
    packed inequality row; the query value [q] is the row's (negated,
    gcd-scaled) constant, i.e. the question "is [sys /\ coeffs.x <= q]
    feasible?".  Feasibility is monotone in [q] with a single rational
    threshold, so one learned bound per side answers every dominated
    query. *)

val check_dir : t -> int array * int array -> Rat.t -> bool option
(** [Some true] — a recorded feasible witness dominates [q] (counted as a
    bound hit); [Some false] — a recorded infeasibility certificate covers
    [q] (counted as a cut hit); [None] — unknown, caller must eliminate
    and {!learn_dir} the outcome. *)

val learn_dir : t -> int array * int array -> Rat.t -> bool -> unit
(** Record the exact outcome of an elimination for this direction. *)

(** {2 Exact projection memos} *)

val find_bounds : t -> int -> (Rat.t option * Rat.t option) option
val store_bounds : t -> int -> Rat.t option * Rat.t option -> unit
(** Memoized [System.bounds] results, keyed by [Var.id]. *)

val find_proj : t -> int list -> Constr.t list option
val store_proj : t -> int list -> Constr.t list -> unit
(** Memoized [System.project_onto] results, keyed by the sorted kept
    variable ids; the value is the canonical (normalized) constraint
    list. *)

(** {2 Variable activity} *)

val ensure_activity : t -> (unit -> (int * int) list) -> unit
(** Seed the activity table once with occurrence counts
    [(var id, count)]. *)

val decay : t -> unit
(** Per-query decay (implemented by growing the bump increment). *)

val bump_vars : t -> int array -> unit
(** Conflict: bump the activity of the given variable ids. *)

val prio : t -> int -> float
(** A lock-free snapshot of the activity table, suitable as the [?prio]
    argument of {!Packed.feasible}. *)
