(** The full compiler-side pipeline (front ends, WOPT, analysis, LNO,
    output files) behind one configuration record.

    [bin/uhc] is a thin command-line wrapper over this module; programs
    embedding the tool call [run] on [{ default with ... }] directly
    instead of threading a dozen positional flags around.  Analysis runs on {!Engine.run}, so
    [jobs]/[cache_dir]/[stats] select parallelism, the persistent
    content-addressed cache and per-phase statistics for every analysis the
    driver performs (including the [--fuse] re-analysis). *)

type config = {
  paths : string list;  (** source files, or a single [.B] WHIRL file *)
  corpus : string option;  (** built-in input: lu, matrix, fig1, stride *)
  out_dir : string option;  (** write [.rgn]/[.dgn]/[.cfg] project files *)
  project : string;  (** project (file base) name *)
  dump_whirl : bool;
  dump_src : bool;
  dump_callgraph : bool;
  dump_summaries : bool;
  loop_summaries : bool;
  execute : bool;  (** interpret the program after analysis *)
  wopt : bool;  (** constant propagation + DCE before analysis *)
  fuse : bool;  (** LNO fusion, then re-analyze *)
  autopar : bool;
  ipl_dir : string option;  (** per-unit [.ipl] summary files *)
  emit_whirl : string option;  (** serialize the WHIRL module *)
  jobs : int;  (** engine domains; 0 = all cores, 1 = serial *)
  cache_dir : string option;  (** persistent engine cache directory *)
  stats : bool;  (** print per-phase engine statistics *)
  stats_det : bool;
      (** print the scheduling-independent statistics subset
          ({!Engine.Stats.pp_deterministic}) — diffable across [jobs] *)
  trace : string option;
      (** record a hierarchical span trace of the whole invocation and
          write it to this path as Chrome [trace_event] JSON (load in
          Perfetto / [chrome://tracing], or render with [dragon profile]) *)
  metrics : string option;
      (** write this run's metrics (the registry diff since the run
          started: counters + latency histograms) to this path as JSON;
          also enables timed-histogram observation *)
  log_level : Obs.Log.level;
      (** structured [key=value] logging on stderr; default [Quiet] *)
  keep_going : bool;
      (** fault tolerance: unreadable/unparsable input files are skipped
          (with a diagnostic) and a procedure whose analysis fails is
          isolated to a conservative opaque summary instead of aborting
          the run ([uhc --keep-going]) *)
  fault_specs : string list;
      (** deterministic fault injection, [SITE:RATE:SEED[:ONLY]] per entry
          ({!Fault.parse_specs}); test/bench only — a malformed spec makes
          {!run} return code 2 without running anything.  The parsed
          specs are the run's fault plan ({!Fault.with_plan}) *)
  diagnostics : string option;
      (** write every recovery diagnostic of the run to this path as JSON
          ([{"diagnostics":[...]}], sorted; validated by
          [bench check-json]) *)
  analyses : string list;
      (** client analyses to run over the finished interprocedural result,
          in order ([uhc --analyses bounds,permissions,regions]); names
          from {!Analyses.Registry.names}.  Each prints its report table
          and contributes to {!result.r_reports} / the [report] file *)
  report : string option;
      (** write the analysis reports to this path as schema-versioned JSON
          ({!Analyses.Report.json_of_reports}); byte-identical at any
          [jobs] setting *)
  ledger : bool;
      (** run-ledger control ([uhc --no-ledger] clears it; default [true]).
          The ledger is written whenever this is set and [cache_dir] is
          too: every run appends one schema-versioned JSONL record to
          [<cache_dir>/ledger/] — config/corpus digests, wall and phase
          timings, the run's metrics diff, per-phase cache hit/miss counts,
          solver counters, analysis verdict tallies, and per-PU content
          keys — consumed by [dragon history]/[regress]/[explain].  The
          [trace]/[metrics] output paths are then suffixed with the run id
          ([trace.json] -> [trace-<run_id>.json],
          {!Obs.Ledger.suffixed_path}) so concurrent runs sharing a
          directory never collide.  Analysis outputs are byte-identical
          with the ledger on or off. *)
}

(** What a pipeline invocation produced, beyond its console output. *)
type result = {
  r_code : int;
      (** process exit code: 0 ok, 1 failure, 2 on a malformed
          [fault_specs] entry or when there is no input at all *)
  r_outputs : string list;
      (** files written, in write order: project [.rgn]/[.dgn]/[.cfg],
          [.ipl] units, emitted WHIRL, report JSON, diagnostics JSON *)
  r_stats : Engine.Stats.t option;
      (** statistics of the last engine run ([None] when analysis never
          ran, e.g. parse failure) *)
  r_diags : Fault.Diag.t list;
      (** recovery diagnostics plus client-analysis findings, in a stable
          chronological order (the [diagnostics] file, by contrast, is
          sorted with {!Fault.Diag.compare}) *)
  r_reports : Analyses.Report.t list;
      (** one report per entry of [analyses], in selection order *)
}

val default : config
(** Everything off or empty, except [project] (["project"]), [jobs] ([1])
    and [ledger] ([true]). *)

val run : config -> result
(** Runs the pipeline, printing to stdout/stderr like the [uhc] tool, and
    returns everything it produced as one {!result} record.  The fault
    specs are bound to this run alone ({!Fault.with_plan}), so concurrent
    runs on other domains keep their own settings and outputs.  The
    solver memo, the metrics registry, tracing and the log level stay
    process-wide; the memo holds exact answers only, so runs may share
    it. *)

val check_ledger_record : string -> Obs.Json.t -> (unit, string) Stdlib.result
(** [check_ledger_record subject record] checks one run-ledger record
    against the shape {!run} writes ([bench check-json] on a ledger
    file): every member with its type, the engine sections of an analyzed
    run, the [metrics] entries ({!Obs.Metrics.of_json}) and every [pus]
    entry ({!Obs.Ledger.pu_of_json}).  The message starts with [subject],
    e.g. ["ledger record 1 pu entry without string \"file\""]. *)
