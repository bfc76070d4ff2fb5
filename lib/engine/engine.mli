(** The parallel, incremental analysis engine.

    [run] produces one {!Ipa.Analyze.result} — byte-identical
    [.rgn]/[.dgn]/[.cfg] contents at every [jobs] setting and cache
    state — while fanning per-PU collection and CFG construction
    across an OCaml domain pool and reusing content-addressed cached
    results:

    - collection results are keyed by a digest of the global symbol table,
      the PU's module position and its content digest
      ({!Whirl.Whirl_io.pu_digest});
    - summaries are keyed by a Merkle digest that also folds in every
      (transitive) callee's key, so editing one PU re-summarizes exactly
      that PU and its transitive callers;
    - a PU's content digest, call sites and CFG come from the frontend
      when it carried them ([~carried]), so only a PU whose collection
      misses is asked for its body.

    With an on-disk store ({!Engine_store.create} [~dir]), the cache
    survives across tool invocations. *)

type config = {
  jobs : int;
  store : Engine_store.t option;
  keep_going : bool;
}

val config :
  ?jobs:int ->
  ?workers:int ->
  ?store:Engine_store.t ->
  ?keep_going:bool ->
  unit ->
  config
(** [jobs] defaults to [1] (serial); [0] means
    [Domain.recommended_domain_count ()].  Without [store], nothing is
    cached.

    [workers] is retained for existing command lines; the process-shard
    pool was removed.  It must be [0] (the default).
    @raise Invalid_argument on any other value.

    [keep_going] (default [false]) turns on per-PU error isolation: a PU
    whose collection or summarization raises — an injected {!Fault} or a
    genuine bug — degrades to conservative stand-ins (empty local
    collection, worst-case {!Ipa.Summary.opaque} summary, skeleton CFG)
    with a structured diagnostic in [e_diags], instead of aborting the
    run.  Degraded results are never persisted to the store, nor are the
    summaries computed from a degraded callee's stand-in (directly or
    transitively): their keys do not name the fault.  Store-level
    faults (corrupt entries, I/O errors) are tolerated regardless of this
    flag — they self-heal inside {!Engine_store}. *)

module Stats : sig
  type phase = {
    ph_name : string;
    ph_wall : float;  (** seconds *)
    ph_alloc : float;
        (** bytes allocated during the phase, coordinating domain plus
            every worker domain that participated in the phase's pool
            batches (workers report their [Gc.allocated_bytes] deltas
            through the ambient {!Obs.Sink}) *)
  }

  type t = {
    s_jobs : int;
    s_pus : int;
    s_collect_hits : int;
    s_collect_misses : int;
    s_summary_hits : int;
    s_summary_misses : int;
    s_phases : phase list;  (** in execution order *)
    s_total_wall : float;
    s_solver : Linear.Solver_stats.t;
        (** the solver counters of this run's registry diff
            ({!Obs.Metrics.diff} around the run): queries, memo hits,
            eliminations — see {!Linear.Solver_stats} *)
  }

  val pp : Format.formatter -> t -> unit

  val pp_deterministic : Format.formatter -> t -> unit
  (** Like {!pp} but restricted to numbers that are reproducible at any
      [--jobs] setting: wall-clock and allocation columns (and the job
      count itself) are dropped, phase names and all cache/solver counters
      are kept.  Suitable for diffing in CI. *)
end

type result = {
  e_result : Ipa.Analyze.result;
  e_stats : Stats.t;
  e_diags : Fault.Diag.t list;
      (** degradation diagnostics from this run: isolated PUs (in PU
          order) followed by store-level events; empty on a fault-free
          run *)
  e_pus : Obs.Ledger.pu list;
      (** what the incrementality machinery knew about each PU, module
          order: the run ledger's per-PU section *)
}

val run :
  ?carried:(Whirl.Ir.pu * Engine_store.carried) list ->
  config ->
  Whirl.Ir.module_ ->
  result
(** Also assigns the memory layout (Mem_Loc) if not yet done, like the
    serial path.

    [carried] (default none) are the content digests, call sites and
    CFGs carried from the frontend ({!Frontend_cache.result}), in module
    order: the [i]-th is used for the module's [i]-th PU only when that PU
    is physically the carried record.  Every other PU — a transformed one,
    a module read from a [.wir] file — is read from its body here, with
    the same functions ([engine.digest.computed] counts the digests).  So
    a PU whose collection hits is never asked for its body
    ({!Whirl.Ir.body}), and a warm run decodes no body it does not
    collect again. *)

val analyze : ?jobs:int -> Whirl.Ir.module_ -> Ipa.Analyze.result
(** One uncached engine run, returning just the analysis result —
    the successor of the removed [Ipa.Analyze.analyze].  [jobs] defaults
    to [1]: the serial reference schedule. *)

val analyze_sources : ?jobs:int -> (string * string) list -> Ipa.Analyze.result
(** Front end + lowering + {!analyze} over [(filename, contents)] pairs —
    the successor of the removed [Ipa.Analyze.analyze_sources]. *)
