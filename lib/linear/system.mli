(** Conjunctions of affine constraints, with Fourier-Motzkin elimination.

    This is the solver the paper's Regions method relies on (Section III:
    "Fourier-Motzkin linear system solver, which has worst case exponential
    time, is needed to compare Regions").  All decisions are exact over the
    rationals; see the individual functions for how that relates to the
    integer index sets regions denote. *)

open Numeric

type t
(** A set of constraints, kept deduplicated and free of trivially-true
    members.  An unsatisfiable constant constraint is retained so that
    infeasibility is observable.

    Hash-consed: the canonical constraint list is interned, so structurally
    equal systems are the same value and {!equal} is one integer
    comparison.  The packed-row translation backing the fast queries is
    cached inside the interned node (computed at most once per process), and
    so is the system's solver memo record (see {!section-core}). *)

val id : t -> int
(** Unique intern id of the canonical form.  Allocation-order dependent —
    valid for equality and keys within the process, never for ordering or
    persistence. *)

val detach : t -> t
(** The same constraints without the process-local caches (packed rows and
    memo record): the form a Marshal image may carry.  Not canonical and
    never to be queried — a loaded image must be re-interned first
    ({!reintern}). *)

val equal : t -> t -> bool
(** Structural equality of the canonical forms, answered by id. *)

val top : t
(** The unconstrained system (whole space). *)

val bottom : t
(** A canonical infeasible system. *)

val of_list : Constr.t list -> t
val to_list : t -> Constr.t list
val add : Constr.t -> t -> t
val meet : t -> t -> t
(** Conjunction. *)

val size : t -> int
val vars : t -> Var.Set.t

val eliminate : Var.t -> t -> t
(** Fourier-Motzkin projection of one variable: the result's rational
    solution set is exactly the shadow of the input's.  Equalities involving
    the variable are used as exact substitutions. *)

val eliminate_all : Var.t list -> t -> t

val project_onto : Var.Set.t -> t -> t
(** Eliminates every variable not in the given set. *)

val feasible : t -> bool
(** Rational feasibility.  [false] guarantees the system has no integer
    points either, which is the direction the dependence/disjointness tests
    need for soundness.

    Answered by the exact packed integer eliminator ({!Packed}) behind the
    system's memo record; overflow falls back to the reference eliminator,
    so the answer always equals {!Reference.feasible}. *)

val subst : Var.t -> Expr.t -> t -> t

val reintern : (Constr.t -> Constr.t) -> t -> t
(** [reintern constr s] is the canonical system of a deserialized (detached)
    one whose constraints [constr] re-interns ({!Constr.reintern}).  The
    stored list is already canonical ({!Constr.compare} is structural and
    the variables keep their ids), so it is not sorted again. *)

val bounds : Var.t -> t -> Rat.t option * Rat.t option
(** [(lo, hi)] — the tightest constant bounds on the variable implied by the
    system (other variables are projected away first).  [None] means
    unbounded in that direction. *)

val implies : t -> Constr.t -> bool
(** Entailment over integer points (constraints have integer coefficients, so
    the negation of [e <= 0] is [e >= 1]).  Sound and complete for integer
    solution sets whenever FM is (no integrality gaps are introduced by the
    negation). *)

val includes : t -> t -> bool
(** [includes a b] — the solution set of [a] contains that of [b]. *)

val disjoint : t -> t -> bool
(** No common rational point; implies no common integer point. *)

val equal_semantic : t -> t -> bool
(** Mutual inclusion. *)

val simplify : t -> t
(** Removes constraints entailed by the rest (quadratic in the system size).
    The result implies every constraint it removed, so it has the same
    solutions: {!implies} is not transitive (it negates over the integers,
    then decides rational feasibility), so a greedy drop is re-checked
    against the final set and restored if no longer implied. *)

val sample : t -> (Var.t -> Rat.t) option
(** A rational point satisfying the system, if feasible: found by
    back-substitution through the elimination order. *)

(** {2:core Solver core}

    One production query core: the exact packed Fourier-Motzkin eliminator
    plus persistent per-system {!Context}s — feasibility witnesses per
    direction answer repeat assumption queries by one rational comparison,
    and bounds/projections are memoized per system.  Feasibility queries
    of cost (constraint count times variable count) at most 2 skip packed
    setup and run the reference eliminator directly; routed queries are
    counted in [Solver_stats.small_runs].

    Every memo lives in one record hung off the interned system and created
    on its first query: the feasibility answer, the implies answers keyed
    by constraint id, and the learned {!Context}.  Each answer carries a
    first-arrival claim, so the hit/miss counters are the same at any
    [--jobs].  A repeat implies query is one map lookup with no lock, no
    clock read and no allocation.  Every answer is exact, so every answer
    is kept; inside {!Reference.run} no answer is read or written. *)

val clear_cache : unit -> unit
(** Forget every memo record: feasibility and implies answers with their
    first-arrival claims, and every learned {!Context} (feasibility
    witnesses, interval box, bounds and projection memos).  One atomic
    epoch bump — a record from an older epoch reads as absent — so it is
    safe while other domains are querying.  Used by benchmarks and tests
    that measure cold solver work; never required for correctness, since
    cached answers are exact facts. *)

(** The exact rational reference eliminator, used as ground truth by the
    solver equivalence tests and the benchmarks.  [bounds] and [sample] are
    aliases: those are output-sensitive and were not changed. *)
module Reference : sig
  val feasible : t -> bool
  val implies : t -> Constr.t -> bool
  val includes : t -> t -> bool
  val disjoint : t -> t -> bool
  val equal_semantic : t -> t -> bool
  val bounds : Var.t -> t -> Rat.t option * Rat.t option
  val sample : t -> (Var.t -> Rat.t) option

  val run : (unit -> 'a) -> 'a
  (** [run f] evaluates [f] with every {!feasible}/{!implies}/{!includes}/
      {!disjoint} answered by the reference eliminator and the memo layers
      bypassed, restoring the previous mode on exit (exceptions included).
      An in-process oracle for differential tests and benchmarks only: the
      switch is process-global, so no other analysis may run
      concurrently. *)
end

val pp : Format.formatter -> t -> unit
