(** Process-wide counters for the fast solver layer in {!System}.

    Every counter is an ["solver.*"] metric in the {!Obs.Metrics} registry
    (this module is a facade over it), atomic so engine worker domains can
    update them without locks.  A run's share is a registry diff
    ({!Obs.Metrics.diff}); {!of_metrics} reads it as the record {!t}, which
    is what the engine's statistics, [--stats] and the run ledger's
    [solver] member print.

    All counters except the wall-clock sums and the [ctx_*] group are
    scheduling-independent: each answer in a system's memo record carries
    a first-arrival claim, and when a query re-computes an answer another
    query already claimed — or when the learned core pays an elimination
    whose necessity depends on query arrival order — {!System} wraps the
    compute in {!quiet}, so each distinct system contributes to
    [cache_misses], [fm_runs], the row counts and the fallback counters
    exactly once however the pool interleaves the work — [--stats]
    counter output is identical at any [--jobs] setting.  The learned-core
    telemetry ([ctx_*]) counts scheduling-dependent work by design and is
    excluded from {!pp_deterministic}. *)

type t = {
  queries : int;  (** [System.feasible] entry points answered *)
  cache_hits : int;
  cache_misses : int;
  box_refutations : int;
      (** queries decided by the per-variable interval bounding box *)
  syntactic_hits : int;  (** [implies] decided without any elimination *)
  fm_runs : int;  (** packed Fourier-Motzkin eliminations performed *)
  fm_rows_built : int;  (** rows produced by FM pair combination *)
  fm_rows_pruned : int;
      (** rows dropped by dominance (same coefficients, looser constant) *)
  overflow_fallbacks : int;
      (** packed arithmetic overflowed; query used the reference path *)
  reference_runs : int;  (** queries answered by the reference path *)
  small_runs : int;
      (** feasibility queries routed straight to the reference eliminator
          because the system is below the small-system threshold (packed
          setup costs more than it saves there) *)
  wall_fast_ns : int;  (** nanoseconds inside fast-path feasible queries *)
  wall_reference_ns : int;
      (** nanoseconds inside reference-path feasible queries *)
  implies_queries : int;  (** [System.implies] entry points answered *)
  implies_memo_hits : int;
      (** implies queries answered from the system's memo record.  Derived
          as [implies_queries - fresh computes] (a fresh compute is the one
          that took the pair's first-arrival claim), so the total is
          scheduling-independent *)
  implies_wall_ns : int;
      (** nanoseconds inside computed [System.implies] queries; memo hits
          are deliberately untimed (the clock reads would cost more than
          the lookup) *)
  ctx_contexts : int;  (** learned solver contexts created *)
  ctx_bound_hits : int;
      (** assumption queries answered by a learned feasibility witness, or
          bounds served from a context *)
  ctx_proj_hits : int;  (** projections served from a context *)
  ctx_elims : int;  (** eliminations paid inside learned contexts *)
}

val query : unit -> unit
val cache_hit : unit -> unit
val cache_miss : unit -> unit
val box_refutation : unit -> unit
val syntactic_hit : unit -> unit
val fm_run : unit -> unit
val fm_rows_built : int -> unit
val fm_rows_pruned : int -> unit
val overflow_fallback : unit -> unit
val reference_run : unit -> unit
val small_run : unit -> unit
val add_fast_ns : int -> unit
val add_reference_ns : int -> unit
val implies_query : unit -> unit

val implies_fresh : unit -> unit
(** A fresh implies compute (first arrival of a distinct (system,
    constraint) pair when the memo is on; every call when it is off). *)

val add_implies_ns : int -> unit

(** Learned-core telemetry: bumped unconditionally, including under
    {!quiet} (see the determinism note above). *)

val ctx_context : unit -> unit
val ctx_bound_hit : unit -> unit
val ctx_proj_hit : unit -> unit
val ctx_elim : unit -> unit

val of_metrics : (string * Obs.Metrics.snapshot) list -> t
(** The solver counters of a registry snapshot or diff; a counter the
    snapshot lacks reads [0]. *)

val snapshot : unit -> t
(** Current process-cumulative counter values.  Kept for the fresh-process
    benchmark helper ([perfbench/pbtool.ml]), which reads whole-process
    totals; everything else reads {!of_metrics} of a run's diff. *)

val to_alist : t -> (string * int) list
(** Every field as [(name, value)], in declaration order — the
    serialization the run ledger and other exporters use, kept here so a
    new counter can't be added without appearing in them. *)

val quiet : (unit -> 'a) -> 'a
(** Run [f] with counting suppressed on the calling domain ({!System} uses
    this for redundant cross-domain recomputes and for learned-context
    eliminations; see the determinism note above). *)

val pp : Format.formatter -> t -> unit

val pp_deterministic : Format.formatter -> t -> unit
(** Like [pp] without the wall-clock and learned-core telemetry lines —
    every printed number is scheduling-independent, so the output is
    diffable in CI. *)
