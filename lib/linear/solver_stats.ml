(* Thin facade over the {!Obs.Metrics} registry: every counter here is a
   registered "solver.*" metric, so the same numbers show up in
   [uhc --metrics] dumps and in the [Engine.Stats] record without being
   kept twice.  Totals are exact under parallelism (wall-clock sums are
   per-query deltas, so concurrent queries may sum to more than elapsed
   time — they measure solver work, not latency).

   [quiet] suppresses counting on the calling domain: System uses it when
   it re-computes a query another query already claimed (a racing
   domain), and for every elimination the learned contexts trigger
   (whether a context answers by a learned cut or pays an elimination
   depends on query arrival order), which keeps every counter outside the ctx_* group
   scheduling-independent — each distinct system is counted exactly once
   however the engine's pool interleaves the work.

   The ctx_* counters are throughput telemetry for the learned core: they are bumped unconditionally (including under
   [quiet]) because the work they count only exists on scheduling-dependent
   paths, and they are deliberately excluded from [pp_deterministic]. *)

type t = {
  queries : int;  (* System.feasible entry points answered *)
  cache_hits : int;
  cache_misses : int;
  box_refutations : int;  (* disjoint/feasible decided by interval boxes *)
  syntactic_hits : int;  (* implies decided without any elimination *)
  fm_runs : int;  (* packed Fourier-Motzkin eliminations performed *)
  fm_rows_built : int;  (* rows produced by FM combination *)
  fm_rows_pruned : int;  (* rows dropped by Imbert counting / dominance *)
  tighten_fallbacks : int;  (* GCD tightening refuted; exact rerun needed *)
  overflow_fallbacks : int;  (* packed arithmetic overflowed; used reference *)
  reference_runs : int;  (* queries answered by the reference path *)
  small_runs : int;  (* tiny systems routed straight to the reference
                        eliminator (packed setup costs more than it saves) *)
  wall_fast_ns : int;  (* time inside fast-path feasible queries *)
  wall_reference_ns : int;  (* time inside reference-path feasible queries *)
  implies_queries : int;  (* System.implies entry points answered *)
  implies_memo_hits : int;  (* derived: queries - fresh computes *)
  implies_wall_ns : int;  (* time inside computed implies queries *)
  ctx_contexts : int;  (* learned contexts created *)
  ctx_cut_hits : int;  (* queries refuted by a learned Farkas cut *)
  ctx_bound_hits : int;  (* queries answered by a learned bound/witness *)
  ctx_proj_hits : int;  (* projections served from a context *)
  ctx_elims : int;  (* eliminations paid inside contexts *)
  ctx_activity_reorders : int;  (* FM picks overridden by activity order *)
}

(* each counter with its registry name: [snapshot] reads the live
   counters, [of_metrics] the same names in a registry snapshot or diff *)
let counter name = (name, Obs.Metrics.counter name)
let c_queries = counter "solver.queries"
let c_cache_hits = counter "solver.cache.hits"
let c_cache_misses = counter "solver.cache.misses"
let c_box_refutations = counter "solver.box_refutations"
let c_syntactic_hits = counter "solver.syntactic_hits"
let c_fm_runs = counter "solver.fm.runs"
let c_fm_rows_built = counter "solver.fm.rows_built"
let c_fm_rows_pruned = counter "solver.fm.rows_pruned"
let c_tighten_fallbacks = counter "solver.fallback.tighten"
let c_overflow_fallbacks = counter "solver.fallback.overflow"
let c_reference_runs = counter "solver.reference.runs"
let c_small_runs = counter "solver.small_runs"
let c_wall_fast_ns = counter "solver.wall.fast_ns"
let c_wall_reference_ns = counter "solver.wall.reference_ns"
let c_implies_queries = counter "solver.implies.queries"
let c_implies_fresh = counter "solver.implies.fresh"
let c_implies_wall_ns = counter "solver.implies.wall_ns"
let c_ctx_contexts = counter "solver.ctx.contexts"
let c_ctx_cut_hits = counter "solver.ctx.cut_hits"
let c_ctx_bound_hits = counter "solver.ctx.bound_hits"
let c_ctx_proj_hits = counter "solver.ctx.proj_hits"
let c_ctx_elims = counter "solver.ctx.elims"
let c_ctx_reorders = counter "solver.ctx.activity_reorders"

(* Per-domain suppression flag for [quiet]. *)
let quiet_key = Domain.DLS.new_key (fun () -> ref false)

let quiet f =
  let q = Domain.DLS.get quiet_key in
  let saved = !q in
  q := true;
  Fun.protect ~finally:(fun () -> q := saved) f

let counting () = not !(Domain.DLS.get quiet_key)

let bump (_, c) = if counting () then Obs.Metrics.Counter.incr c
let add (_, c) n = if counting () then Obs.Metrics.Counter.add c n

let query () = bump c_queries
let cache_hit () = bump c_cache_hits
let cache_miss () = bump c_cache_misses
let box_refutation () = bump c_box_refutations
let syntactic_hit () = bump c_syntactic_hits
let fm_run () = bump c_fm_runs
let fm_rows_built n = add c_fm_rows_built n
let fm_rows_pruned n = add c_fm_rows_pruned n
let tighten_fallback () = bump c_tighten_fallbacks
let overflow_fallback () = bump c_overflow_fallbacks
let reference_run () = bump c_reference_runs
let small_run () = bump c_small_runs
let add_fast_ns n = add c_wall_fast_ns n
let add_reference_ns n = add c_wall_reference_ns n
let implies_query () = bump c_implies_queries
let implies_fresh () = bump c_implies_fresh
let add_implies_ns n = add c_implies_wall_ns n

(* Learned-core telemetry: unconditional (see the module comment). *)
let always (_, c) = Obs.Metrics.Counter.incr c
let ctx_context () = always c_ctx_contexts
let ctx_cut_hit () = always c_ctx_cut_hits
let ctx_bound_hit () = always c_ctx_bound_hits
let ctx_proj_hit () = always c_ctx_proj_hits
let ctx_elim () = always c_ctx_elims
let ctx_activity_reorder () = always c_ctx_reorders

let read get =
  let implies_queries = get c_implies_queries in
  let implies_fresh = get c_implies_fresh in
  {
    queries = get c_queries;
    cache_hits = get c_cache_hits;
    cache_misses = get c_cache_misses;
    box_refutations = get c_box_refutations;
    syntactic_hits = get c_syntactic_hits;
    fm_runs = get c_fm_runs;
    fm_rows_built = get c_fm_rows_built;
    fm_rows_pruned = get c_fm_rows_pruned;
    tighten_fallbacks = get c_tighten_fallbacks;
    overflow_fallbacks = get c_overflow_fallbacks;
    reference_runs = get c_reference_runs;
    small_runs = get c_small_runs;
    wall_fast_ns = get c_wall_fast_ns;
    wall_reference_ns = get c_wall_reference_ns;
    implies_queries;
    (* every entry point either computes freshly (counted in
       solver.implies.fresh) or was answered by the system's memo record, so
       hits are derived and stay scheduling-independent even when two
       domains race on one fresh pair *)
    implies_memo_hits = implies_queries - implies_fresh;
    implies_wall_ns = get c_implies_wall_ns;
    ctx_contexts = get c_ctx_contexts;
    ctx_cut_hits = get c_ctx_cut_hits;
    ctx_bound_hits = get c_ctx_bound_hits;
    ctx_proj_hits = get c_ctx_proj_hits;
    ctx_elims = get c_ctx_elims;
    ctx_activity_reorders = get c_ctx_reorders;
  }

let snapshot () = read (fun (_, c) -> Obs.Metrics.Counter.get c)
let of_metrics m = read (fun (name, _) -> Obs.Metrics.value m name)

let to_alist t =
  [
    ("queries", t.queries);
    ("cache_hits", t.cache_hits);
    ("cache_misses", t.cache_misses);
    ("box_refutations", t.box_refutations);
    ("syntactic_hits", t.syntactic_hits);
    ("fm_runs", t.fm_runs);
    ("fm_rows_built", t.fm_rows_built);
    ("fm_rows_pruned", t.fm_rows_pruned);
    ("tighten_fallbacks", t.tighten_fallbacks);
    ("overflow_fallbacks", t.overflow_fallbacks);
    ("reference_runs", t.reference_runs);
    ("small_runs", t.small_runs);
    ("wall_fast_ns", t.wall_fast_ns);
    ("wall_reference_ns", t.wall_reference_ns);
    ("implies_queries", t.implies_queries);
    ("implies_memo_hits", t.implies_memo_hits);
    ("implies_wall_ns", t.implies_wall_ns);
    ("ctx_contexts", t.ctx_contexts);
    ("ctx_cut_hits", t.ctx_cut_hits);
    ("ctx_bound_hits", t.ctx_bound_hits);
    ("ctx_proj_hits", t.ctx_proj_hits);
    ("ctx_elims", t.ctx_elims);
    ("ctx_activity_reorders", t.ctx_activity_reorders);
  ]

let pp_counters ppf t =
  Format.fprintf ppf
    "solver: %d queries (%d cache hit / %d miss), %d box-refuted, %d \
     syntactic@\n"
    t.queries t.cache_hits t.cache_misses t.box_refutations t.syntactic_hits;
  Format.fprintf ppf
    "  FM: %d runs, %d rows built, %d pruned; fallbacks: %d tighten, %d \
     overflow, %d reference; small path: %d@\n"
    t.fm_runs t.fm_rows_built t.fm_rows_pruned t.tighten_fallbacks
    t.overflow_fallbacks t.reference_runs t.small_runs;
  Format.fprintf ppf "  implies: %d queries (%d memo hit)@\n" t.implies_queries
    t.implies_memo_hits

let pp ppf t =
  pp_counters ppf t;
  Format.fprintf ppf
    "  learned: %d contexts, %d cut hits, %d bound hits, %d proj hits, %d \
     elims, %d reorders@\n"
    t.ctx_contexts t.ctx_cut_hits t.ctx_bound_hits t.ctx_proj_hits t.ctx_elims
    t.ctx_activity_reorders;
  Format.fprintf ppf
    "  feasible wall: fast %.3f ms, reference %.3f ms; implies wall %.3f \
     ms@\n"
    (float_of_int t.wall_fast_ns /. 1e6)
    (float_of_int t.wall_reference_ns /. 1e6)
    (float_of_int t.implies_wall_ns /. 1e6)

let pp_deterministic ppf t =
  (* everything but the wall-clock sums and the learned-core telemetry
     line: those counters depend on timing/scheduling (which memo layer or
     learned fact answered a racing query), the rest are
     scheduling-independent (see [quiet]) *)
  pp_counters ppf t
