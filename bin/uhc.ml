(* uhc: command-line front over Pipeline (lib/engine).

   Mirrors the paper's usage step 1-2: compile the application with
   interprocedural array analysis enabled and obtain the .dgn/.cfg/.rgn
   files that Dragon loads.  All driver logic lives in [Pipeline.run];
   this file only maps flags onto [Pipeline.config]. *)

let run paths corpus out_dir project dump_whirl dump_src dump_callgraph
    dump_summaries execute wopt ipl_dir fuse autopar emit_whirl loop_summaries
    jobs () cache_dir stats stats_det trace metrics log_level keep_going
    fault_specs diagnostics solver_budget analyses report no_ledger =
  let result =
    Pipeline.run
      {
        Pipeline.paths;
        corpus;
        out_dir;
        project;
        dump_whirl;
        dump_src;
        dump_callgraph;
        dump_summaries;
        execute;
        wopt;
        ipl_dir;
        fuse;
        autopar;
        emit_whirl;
        loop_summaries;
        jobs;
        cache_dir;
        stats;
        stats_det;
        trace;
        metrics;
        log_level;
        keep_going;
        fault_specs;
        diagnostics;
        solver_budget;
        analyses;
        report;
        ledger = not no_ledger;
      }
  in
  result.Pipeline.r_code

open Cmdliner

let paths =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Source files (.f/.f90/.c).")

let corpus =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"NAME"
        ~doc:"Analyze a built-in example instead of files: lu, matrix, fig1, \
              stride, gen (pinned seed-42 scale corpus), gen-small.")

let out_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"DIR"
        ~doc:"Write the .rgn/.dgn/.cfg project files (and source copies) here.")

let project =
  Arg.(
    value & opt string "project"
    & info [ "p"; "project" ] ~docv:"NAME" ~doc:"Project (file base) name.")

let dump_whirl =
  Arg.(value & flag & info [ "dump-whirl" ] ~doc:"Print the WHIRL trees.")

let dump_src =
  Arg.(value & flag & info [ "whirl2src" ] ~doc:"Print whirl2src output.")

let dump_callgraph =
  Arg.(value & flag & info [ "callgraph" ] ~doc:"Print the call graph.")

let dump_summaries =
  Arg.(value & flag & info [ "summaries" ] ~doc:"Print procedure region summaries.")

let execute =
  Arg.(value & flag & info [ "run" ] ~doc:"Interpret the program after analysis.")

let wopt =
  Arg.(
    value & flag
    & info [ "wopt" ]
        ~doc:
          "Run the WHIRL optimizer (constant propagation + dead code \
           elimination) before the analysis; constant-folds loop bounds, \
           which sharpens symbolic region bounds into exact triplets.")

let ipl_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "ipl" ] ~docv:"DIR"
        ~doc:"Write per-compilation-unit .ipl summary files (the IPL/IPA \
              boundary of the paper).")

let fuse =
  Arg.(
    value & flag
    & info [ "fuse" ]
        ~doc:"Run the LNO fusion pass (dependence-legal adjacent loop \
              fusion) after the analysis and re-analyze.")

let autopar =
  Arg.(
    value & flag
    & info [ "autopar" ]
        ~doc:"Detect parallelizable outermost loops and print the annotated \
              sources with OpenMP directives inserted.")

let emit_whirl =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-whirl" ] ~docv:"FILE"
        ~doc:"Serialize the (optimized) WHIRL module to FILE (.B analog); a \
              later run can analyze the FILE directly.")

let loop_summaries =
  Arg.(
    value & flag
    & info [ "loop-summaries" ]
        ~doc:"Print per-loop access summaries (the loop-level granularity \
              of the paper's Section I).")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Analysis domains: 1 = serial (default), 0 = one per core. \
              Output is byte-identical at any setting.")

(* retained for existing command lines; the process-shard pool was
   removed, so only [--workers 0] parses *)
let workers =
  let only_zero =
    Arg.conv
      ( (fun s ->
          if String.trim s = "0" then Ok ()
          else
            Error
              (`Msg
                (Printf.sprintf
                   "%S: only 0 is accepted (the process-shard pool was \
                    removed); use --jobs N for parallelism"
                   s))),
        fun ppf () -> Format.pp_print_string ppf "0" )
  in
  Arg.(
    value & opt only_zero ()
    & info [ "workers" ] ~docv:"0"
        ~doc:"Retained for existing command lines; the process-shard pool \
              was removed.  Only 0 is accepted; use --jobs for \
              parallelism.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Persist per-procedure analysis results here, keyed by content \
              digests; repeated invocations only re-analyze what changed.")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print per-phase wall-clock/allocation statistics and cache \
              hit/miss counts for every analysis the driver runs.")

let stats_det =
  Arg.(
    value & flag
    & info [ "stats-det" ]
        ~doc:"Print the scheduling-independent statistics subset (no \
              wall-clock/allocation columns); byte-identical at any --jobs \
              setting, so suitable for diffing in CI.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record a hierarchical span trace of the invocation and write \
              it to FILE as Chrome trace_event JSON (open in Perfetto or \
              chrome://tracing, or render with dragon profile FILE).")

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write this run's metrics (named counters and latency \
              histograms with p50/p95/p99) to FILE as JSON.")

let log_level =
  let parse s =
    match Obs.Log.level_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown log level %S" s))
  in
  let print ppf l =
    Format.pp_print_string ppf
      (match l with
      | Obs.Log.Quiet -> "quiet"
      | Obs.Log.Info -> "info"
      | Obs.Log.Debug -> "debug")
  in
  Arg.(
    value
    & opt (conv (parse, print)) Obs.Log.Quiet
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Structured key=value logging on stderr: quiet (default), \
              info, or debug.")

let keep_going =
  Arg.(
    value & flag
    & info [ "k"; "keep-going" ]
        ~doc:"Fault tolerance: skip unreadable or unparsable input files and \
              isolate procedures whose analysis fails to a conservative \
              opaque summary (whole-extent USE+DEF) instead of aborting; \
              every recovery is recorded as a diagnostic.")

let fault_specs =
  Arg.(
    value
    & opt_all string []
    & info [ "fault-spec" ] ~docv:"SITE:RATE:SEED[:ONLY]"
        ~doc:"Deterministic fault injection for testing the recovery paths \
              (repeatable).  SITE is store.read, store.write, store.marshal, \
              pool, solver, or all; RATE in [0,1]; SEED any integer; ONLY \
              restricts to injection keys containing the substring.  The \
              firing decision is a pure function of (seed, site, key), so \
              runs are reproducible at any --jobs setting.")

let diagnostics =
  Arg.(
    value
    & opt (some string) None
    & info [ "diagnostics" ] ~docv:"FILE"
        ~doc:"Write every recovery diagnostic of the run to FILE as JSON \
              (validate with bench check-json FILE).")

let solver_budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "solver-budget" ] ~docv:"N"
        ~doc:"Per-query step budget for the linear solver; a query whose \
              cost (constraints times variables) exceeds N answers \
              conservatively from the interval box instead of running \
              Fourier-Motzkin.")

let analyses =
  let parse s =
    match Analyses.Registry.parse_selection s with
    | Ok tokens -> Ok tokens
    | Error msg -> Error (`Msg msg)
  in
  let print ppf tokens = Format.pp_print_string ppf (String.concat "," tokens) in
  Arg.(
    value
    & opt (conv (parse, print)) []
    & info [ "analyses" ] ~docv:"NAMES"
        ~doc:"Comma-separated client analyses to run over the finished \
              interprocedural result: bounds (three-valued array bounds \
              verdicts + check elimination), permissions (per-procedure \
              read/write permission preconditions), regions (the .rgn \
              table as a report).  Each prints a table; see --report for \
              the JSON form.")

let report =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:"Write the --analyses reports to FILE as schema-versioned \
              JSON (validate with bench check-json FILE); byte-identical \
              at any --jobs setting.")

let no_ledger =
  Arg.(
    value & flag
    & info [ "no-ledger" ]
        ~doc:"Do not append this run's record (config/corpus digests, \
              timings, cache and solver counters, verdict tallies, \
              per-procedure content keys) to CACHE-DIR/ledger/, the \
              history behind dragon history/regress/explain.  Without \
              this flag every run with --cache-dir writes one.")

(* ------------------------------------------------------------------ *)
(* uhc gen: emit a seeded corpus to a directory *)

let run_gen seed files pus dag scc loop_depth ext_min ext_max sparsity oob
    undeclared out =
  let cfg =
    {
      Corpus.Gen.g_seed = seed;
      g_files = files;
      g_pus_per_file = pus;
      g_dag_depth = dag;
      g_scc_density = scc;
      g_loop_depth = loop_depth;
      g_ext_min = ext_min;
      g_ext_max = ext_max;
      g_sparsity = sparsity;
      g_oob = oob;
      g_undeclared = undeclared;
    }
  in
  match Corpus.Gen.generate cfg with
  | exception Invalid_argument msg ->
    Printf.eprintf "uhc gen: %s\n" msg;
    1
  | sources ->
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    List.iter
      (fun (name, contents) ->
        let oc = open_out_bin (Filename.concat out name) in
        output_string oc contents;
        close_out oc)
      sources;
    Printf.printf "wrote %d files (%s) to %s\n" (List.length sources)
      (Corpus.Gen.describe cfg) out;
    0

let gen_cmd =
  let d = Corpus.Gen.default in
  let seed =
    Arg.(
      value & opt int d.Corpus.Gen.g_seed
      & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed; same seed, same bytes.")
  in
  let files =
    Arg.(
      value & opt int d.Corpus.Gen.g_files
      & info [ "files" ] ~docv:"N" ~doc:"Source-file count.")
  in
  let pus =
    Arg.(
      value & opt int d.Corpus.Gen.g_pus_per_file
      & info [ "pus-per-file" ] ~docv:"N"
          ~doc:"Program units per file (main included).")
  in
  let dag =
    Arg.(
      value & opt int d.Corpus.Gen.g_dag_depth
      & info [ "dag-depth" ] ~docv:"N"
          ~doc:"Call-chain segment length / depth budget.")
  in
  let scc =
    Arg.(
      value & opt float d.Corpus.Gen.g_scc_density
      & info [ "scc-density" ] ~docv:"P"
          ~doc:"Probability of a recursion back-edge per chain link.")
  in
  let loop_depth =
    Arg.(
      value & opt int d.Corpus.Gen.g_loop_depth
      & info [ "loop-depth" ] ~docv:"N" ~doc:"Dense loop-nest depth.")
  in
  let ext_min =
    Arg.(
      value & opt int d.Corpus.Gen.g_ext_min
      & info [ "ext-min" ] ~docv:"N" ~doc:"Minimum per-file array extent.")
  in
  let ext_max =
    Arg.(
      value & opt int d.Corpus.Gen.g_ext_max
      & info [ "ext-max" ] ~docv:"N" ~doc:"Maximum per-file array extent.")
  in
  let sparsity =
    Arg.(
      value & opt float d.Corpus.Gen.g_sparsity
      & info [ "sparsity" ] ~docv:"P"
          ~doc:"Fraction of PUs accessing through an index array.")
  in
  let oob =
    Arg.(
      value & opt float d.Corpus.Gen.g_oob
      & info [ "oob" ] ~docv:"P"
          ~doc:"Fraction of sparse PUs whose index array really goes out of \
                bounds (runtime-inspector archetype).")
  in
  let undeclared =
    Arg.(
      value & opt float d.Corpus.Gen.g_undeclared
      & info [ "undeclared" ] ~docv:"P"
          ~doc:"Fraction of sparse PUs with no property directive.")
  in
  let out =
    Arg.(
      value & opt string "gen-corpus"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Directory to write into.")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "emit a seeded, deterministic Fortran scale corpus (same seed, \
          byte-identical files); analyze the result with uhc *.f or use \
          --corpus gen for the pinned standard workload")
    Term.(
      const run_gen $ seed $ files $ pus $ dag $ scc $ loop_depth $ ext_min
      $ ext_max $ sparsity $ oob $ undeclared $ out)

let cmd =
  let doc = "analyze array regions in MiniF/MiniC programs (OpenUH-style)" in
  Cmd.v
    (Cmd.info "uhc" ~doc)
    Term.(
      const run $ paths $ corpus $ out_dir $ project $ dump_whirl $ dump_src
      $ dump_callgraph $ dump_summaries $ execute $ wopt $ ipl_dir $ fuse
      $ autopar $ emit_whirl $ loop_summaries $ jobs $ workers $ cache_dir
      $ stats
      $ stats_det $ trace $ metrics $ log_level $ keep_going $ fault_specs
      $ diagnostics $ solver_budget $ analyses $ report $ no_ledger)

(* [uhc gen ...] dispatches on the first word by hand: a [Cmd.group] with
   a default term would swallow positional source paths as (unknown)
   command names, and plain [uhc file.f] must keep working. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "gen" then begin
    let argv =
      Array.append [| "uhc gen" |] (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    in
    exit (Cmd.eval' ~argv gen_cmd)
  end
  else exit (Cmd.eval' cmd)
