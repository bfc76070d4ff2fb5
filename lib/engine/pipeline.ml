(* The compiler-side driver behind a single configuration record.

   This is the paper's usage steps 1-2 (compile with interprocedural array
   analysis enabled, obtain the .dgn/.cfg/.rgn files Dragon loads) as a
   library entry point: [bin/uhc] is only command-line parsing over
   [run].  Analysis itself goes through [Engine.run], so every
   driver feature (--fuse re-analysis, repeated invocations with
   --cache-dir) is parallel and incremental for free. *)

type config = {
  paths : string list;
  corpus : string option;
  out_dir : string option;
  project : string;
  dump_whirl : bool;
  dump_src : bool;
  dump_callgraph : bool;
  dump_summaries : bool;
  loop_summaries : bool;
  execute : bool;
  wopt : bool;
  fuse : bool;
  autopar : bool;
  ipl_dir : string option;
  emit_whirl : string option;
  jobs : int;
  cache_dir : string option;
  stats : bool;
  stats_det : bool;
  trace : string option;
  metrics : string option;
  log_level : Obs.Log.level;
  keep_going : bool;
  fault_specs : string list;
  diagnostics : string option;
  analyses : string list;
  report : string option;
  ledger : bool;
}

type result = {
  r_code : int;
  r_outputs : string list;
  r_stats : Engine.Stats.t option;
  r_diags : Fault.Diag.t list;
  r_reports : Analyses.Report.t list;
}

let default =
  {
    paths = [];
    corpus = None;
    out_dir = None;
    project = "project";
    dump_whirl = false;
    dump_src = false;
    dump_callgraph = false;
    dump_summaries = false;
    loop_summaries = false;
    execute = false;
    wopt = false;
    fuse = false;
    autopar = false;
    ipl_dir = None;
    emit_whirl = None;
    jobs = 1;
    cache_dir = None;
    stats = false;
    stats_det = false;
    trace = None;
    metrics = None;
    log_level = Obs.Log.Quiet;
    keep_going = false;
    fault_specs = [];
    diagnostics = None;
    analyses = [];
    report = None;
    ledger = true;
  }

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let copy_sources ~dir files =
  List.iter
    (fun (name, contents) ->
      let dst = Filename.concat dir (Filename.basename name) in
      Rgnfile.Files.save ~path:dst contents)
    files

let load_inputs ~keep_going ~diags paths corpus =
  match corpus with
  | Some "lu" -> Corpus.Nas_lu.files ()
  | Some "matrix" -> [ Corpus.Small.matrix_c ]
  | Some "fig1" -> [ Corpus.Small.fig1_f ]
  | Some "stride" -> [ Corpus.Small.stride_f ]
  | Some "gen" -> Corpus.Gen.(generate (standard ()))
  | Some "gen-small" -> Corpus.Gen.(generate default)
  | Some other ->
    failwith
      (Printf.sprintf "unknown corpus %S (lu|matrix|fig1|stride|gen|gen-small)"
         other)
  | None ->
    List.filter_map
      (fun p ->
        match read_file p with
        | contents -> Some (p, contents)
        | exception Sys_error msg ->
          if not keep_going then failwith msg;
          Printf.eprintf "uhc: %s (skipped under --keep-going)\n" msg;
          diags :=
            Fault.Diag.make ~severity:Fault.Diag.Error ~site:"io.read"
              ~pu:(Filename.basename p) ~action:"skipped-file" msg
            :: !diags;
          None)
      paths

(* Nothing to analyze and no tolerated fault to blame: a usage error. *)
exception No_input

(* What the ledger record needs from inside the body: the digest of the
   inputs actually analyzed and the engine's per-PU cache entries (of the
   last analysis when --fuse re-analyzes). *)
type ledger_acc = {
  mutable la_corpus_digest : string;
  mutable la_pus : Obs.Ledger.pu list;
}

let exec_body ~metrics0 ~diags ~outputs ~stats ~reports ~ledger_acc
    (cfg : config) =
  try
    (match
       List.filter (fun n -> Analyses.Registry.find n = None) cfg.analyses
     with
    | [] -> ()
    | unknown ->
      failwith
        (Printf.sprintf "unknown analyses: %s (available: %s)"
           (String.concat ", " unknown)
           (String.concat ", " (Analyses.Registry.names ()))));
    (* a single .B input resumes from a serialized WHIRL file, skipping the
       front ends entirely -- the paper's multi-phase pipeline *)
    let from_whirl =
      match (cfg.paths, cfg.corpus) with
      | [ p ], None when Filename.extension p = ".B" -> Some p
      | _ -> None
    in
    let files =
      match from_whirl with
      | Some _ -> []
      | None -> load_inputs ~keep_going:cfg.keep_going ~diags cfg.paths cfg.corpus
    in
    ledger_acc.la_corpus_digest <-
      (let b = Buffer.create 256 in
       (match from_whirl with
       | Some p -> (
         Buffer.add_string b p;
         try Buffer.add_string b (Digest.file p) with Sys_error _ -> ())
       | None ->
         List.iter
           (fun (name, contents) ->
             Buffer.add_string b name;
             Buffer.add_char b '\000';
             Buffer.add_string b (Digest.string contents))
           files);
       Digest.to_hex (Digest.string (Buffer.contents b)));
    if files = [] && from_whirl = None then begin
      prerr_endline "uhc: no input files";
      if cfg.keep_going && (cfg.paths <> [] || cfg.corpus <> None) then
        (* every input was skipped by a tolerated fault: degraded, not a
           usage error *)
        failwith "no analyzable input files survived"
      else raise No_input
    end;
    (* one store for the whole invocation, opened before the frontend: it
       holds the per-file frontend artifacts too, and the --fuse
       re-analysis hits it for every PU fusion left untouched *)
    let store =
      match cfg.cache_dir with
      | Some dir -> Some (Engine_store.create ~dir ())
      | None -> if cfg.fuse then Some (Engine_store.create ()) else None
    in
    let m0, carried =
      match from_whirl with
      | Some path -> (
        match Whirl.Whirl_io.load ~path with
        | Ok m -> (m, [])
        | Error e -> failwith (Printf.sprintf "%s: %s" path e))
      | None ->
        let fr =
          Frontend_cache.load ?store ~keep_going:cfg.keep_going files
        in
        List.iter
          (fun (file, d) ->
            Printf.eprintf "%s (skipped under --keep-going)\n"
              (Lang.Diag.to_string d);
            diags :=
              Fault.Diag.make ~severity:Fault.Diag.Error ~site:"frontend.parse"
                ~pu:(Filename.basename file) ~action:"skipped-file"
                (Lang.Diag.to_string d)
              :: !diags)
          fr.Frontend_cache.fr_skipped;
        if
          fr.Frontend_cache.fr_skipped <> []
          && List.length fr.Frontend_cache.fr_skipped = List.length files
        then failwith "all input files failed to parse";
        if cfg.stats && cfg.cache_dir <> None then begin
          (* the artifact counters move only with a disk store, and only
             in the frontend: the run's diff so far is the load's *)
          let d = Obs.Metrics.diff (Obs.Metrics.snapshot ()) metrics0 in
          let count k = Obs.Metrics.value d ("frontend.artifact." ^ k) in
          Printf.printf
            "frontend: interface %d hit / %d miss, body %d hit / %d miss\n"
            (count "interface.hits") (count "interface.misses")
            (count "body.hits") (count "body.misses")
        end;
        (fr.Frontend_cache.fr_module, fr.Frontend_cache.fr_carried)
    in
    let m0 =
      if cfg.wopt then begin
        let m1, cp =
          Obs.Span.with_ ~cat:"phase" ~name:"wopt:const_prop" (fun () ->
              Wopt.Const_prop.run m0)
        in
        let m2, dce =
          Obs.Span.with_ ~cat:"phase" ~name:"wopt:dce" (fun () ->
              Wopt.Dce.run m1)
        in
        Printf.printf
          "wopt: folded %d loads, %d ops, %d branches; removed %d statements, %d dead stores\n"
          cp.Wopt.Const_prop.folded_loads cp.Wopt.Const_prop.folded_ops
          cp.Wopt.Const_prop.folded_branches dce.Wopt.Dce.removed_stmts
          dce.Wopt.Dce.removed_stores;
        m2
      end
      else m0
    in
    let engine_cfg =
      Engine.config ~jobs:cfg.jobs ?store ~keep_going:cfg.keep_going ()
    in
    let analyze m =
      (* the engine uses what the frontend carried only for a PU it
         returned untouched, so --wopt and --fuse output is read anew *)
      let r = Engine.run ~carried engine_cfg m in
      diags := List.rev_append r.Engine.e_diags !diags;
      stats := Some r.Engine.e_stats;
      ledger_acc.la_pus <- r.Engine.e_pus;
      if cfg.stats then Format.printf "%a@?" Engine.Stats.pp r.Engine.e_stats;
      if cfg.stats_det then
        Format.printf "%a@?" Engine.Stats.pp_deterministic r.Engine.e_stats;
      r.Engine.e_result
    in
    let result = analyze m0 in
    let result =
      if not cfg.fuse then result
      else begin
        (* LNO: dependence-legal fusion of adjacent compatible loops *)
        let m = result.Ipa.Analyze.r_module in
        let total = ref 0 in
        let pus =
          Obs.Span.with_ ~cat:"phase" ~name:"lno:fuse" @@ fun () ->
          List.map
            (fun pu ->
              let pu', n =
                Ipa.Lno.fuse_pu m result.Ipa.Analyze.r_summaries pu
              in
              total := !total + n;
              pu')
            m.Whirl.Ir.m_pus
        in
        Printf.printf "lno: fused %d loop pair(s)\n" !total;
        analyze { m with Whirl.Ir.m_pus = pus }
      end
    in
    let m = result.Ipa.Analyze.r_module in
    if cfg.dump_whirl then
      List.iter
        (fun pu ->
          Format.printf "=== %s ===@.%a@." pu.Whirl.Ir.pu_name Whirl.Wn.pp
            (Whirl.Ir.body pu))
        m.Whirl.Ir.m_pus;
    if cfg.dump_src then print_string (Whirl.Whirl2src.module_to_string m);
    if cfg.dump_callgraph then
      print_string (Ipa.Callgraph.to_ascii_tree result.Ipa.Analyze.r_callgraph);
    if cfg.dump_summaries then
      List.iter
        (fun (name, summary) ->
          match Whirl.Ir.find_pu m name with
          | None -> ()
          | Some pu ->
            Format.printf "@[<v 2>summary of %s:@,%a@]@." name
              (Ipa.Summary.pp m pu) summary)
        result.Ipa.Analyze.r_summaries;
    if cfg.loop_summaries then
      List.iter
        (fun pu ->
          let lss = Ipa.Loopsum.of_pu m result.Ipa.Analyze.r_summaries pu in
          if lss <> [] then print_string (Ipa.Loopsum.render m pu lss))
        m.Whirl.Ir.m_pus;
    if cfg.autopar then begin
      let report = Ipa.Autopar.plan m result.Ipa.Analyze.r_summaries in
      print_string (Ipa.Autopar.render report);
      (* annotated sources *)
      List.iter
        (fun (name, contents) ->
          let annotated = Ipa.Autopar.annotate report ~file:name contents in
          if annotated <> contents then begin
            Printf.printf "--- %s (annotated) ---\n" name;
            print_string annotated
          end)
        files
    end;
    (* client analyses over the finished interprocedural result *)
    (match cfg.analyses with
    | [] -> ()
    | selection ->
      let ctx =
        {
          Analyses.Analysis.ctx_module = m;
          Analyses.Analysis.ctx_result = result;
        }
      in
      let outcomes =
        Obs.Span.with_ ~cat:"phase" ~name:"analyses" (fun () ->
            Analyses.Registry.run_selected ~selection ctx)
      in
      List.iter
        (fun (report, ds) ->
          reports := report :: !reports;
          diags := List.rev_append ds !diags)
        outcomes;
      Obs.Span.with_ ~cat:"io" ~name:"emit:tables" (fun () ->
          List.iter
            (fun (report, _) ->
              Format.printf "@[<v>%a@]@?" Analyses.Report.render report)
            outcomes));
    (* a program that stops with a runtime error is the program's fault,
       not uhc's: say where, still write the outputs, and exit 1 *)
    let run_failed =
      cfg.execute
      &&
      match
        Obs.Span.with_ ~cat:"phase" ~name:"execute" (fun () -> Interp.run m)
      with
      | outcome ->
        print_string outcome.Interp.out_text;
        Printf.printf "(%d statements executed)\n" outcome.Interp.out_steps;
        if cfg.dump_callgraph then begin
          (* the dynamic call graph with feedback information (Dragon Fig 5) *)
          let project =
            Dragon.Project.make ~name:cfg.project
              ~dgn:result.Ipa.Analyze.r_dgn ()
          in
          print_string
            (Dragon.Graphs.callgraph_ascii ~feedback:outcome.Interp.out_calls
               project)
        end;
        false
      | exception Interp.Runtime_error (msg, loc) ->
        Printf.eprintf "uhc: %s: runtime error: %s\n%!" (Lang.Loc.to_string loc)
          msg;
        true
      | exception Interp.Out_of_fuel ->
        prerr_endline "uhc: --run stopped: statement budget exhausted";
        true
    in
    (match cfg.out_dir with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let written =
        Obs.Span.with_ ~cat:"io" ~name:"write_outputs" (fun () ->
            Ipa.Analyze.write_outputs result ~dir ~project:cfg.project)
      in
      Obs.Span.with_ ~cat:"io" ~name:"emit:sources" (fun () ->
          copy_sources ~dir files);
      outputs := List.rev_append written !outputs;
      List.iter (Printf.printf "wrote %s\n") written);
    (match cfg.ipl_dir with
    | None -> ()
    | Some dir ->
      (* one .ipl per compilation unit, as the paper's IPL phase does *)
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let by_unit = Hashtbl.create 8 in
      List.iter
        (fun pu ->
          let unit_name =
            Filename.remove_extension (Filename.basename pu.Whirl.Ir.pu_file)
          in
          let cur = try Hashtbl.find by_unit unit_name with Not_found -> [] in
          match
            List.assoc_opt pu.Whirl.Ir.pu_name result.Ipa.Analyze.r_summaries
          with
          | Some s ->
            Hashtbl.replace by_unit unit_name
              (cur @ [ (pu.Whirl.Ir.pu_name, s) ])
          | None ->
            Printf.eprintf
              "uhc: warning: no summary for procedure %s; omitted from %s.ipl\n"
              pu.Whirl.Ir.pu_name unit_name)
        m.Whirl.Ir.m_pus;
      Hashtbl.iter
        (fun unit_name summaries ->
          let path =
            Ipa.Iplfile.save ~dir ~unit_name
              (Ipa.Iplfile.write_unit m summaries)
          in
          outputs := path :: !outputs;
          Printf.printf "wrote %s\n" path)
        by_unit);
    (match cfg.emit_whirl with
    | None -> ()
    | Some path ->
      Obs.Span.with_ ~cat:"io" ~name:"emit_whirl" (fun () ->
          Whirl.Whirl_io.save ~path m);
      outputs := path :: !outputs;
      Printf.printf "wrote %s\n" path);
    (match cfg.report with
    | None -> ()
    | Some path ->
      Obs.Span.with_ ~cat:"io" ~name:"emit:report" (fun () ->
          Analyses.Report.save ~path (List.rev !reports));
      outputs := path :: !outputs;
      Printf.printf "wrote %s\n" path);
    (* a body read after the last engine run (an analysis, --run, the
       WHIRL writers) may have set a damaged segment aside: seal that, and
       record its store diagnostics here *)
    Option.iter
      (fun st ->
        Engine_store.publish st;
        diags := List.rev_append (Engine_store.drain_diags st) !diags)
      store;
    Printf.printf "analyzed %d procedures, %d call edges, %d array-region rows\n"
      (Ipa.Callgraph.node_count result.Ipa.Analyze.r_callgraph)
      (Ipa.Callgraph.edge_count result.Ipa.Analyze.r_callgraph)
      (List.length result.Ipa.Analyze.r_rows);
    if run_failed then 1 else 0
  with
  | No_input -> 2
  | Lang.Diag.Frontend_error d ->
    Printf.eprintf "%s\n" (Lang.Diag.to_string d);
    1
  | Failure msg ->
    Printf.eprintf "uhc: %s\n" msg;
    1
  | Fault.Injected (site, key) ->
    (* an injected fault escaped every recovery layer (only possible
       without --keep-going, or at a site with no isolation boundary) *)
    Printf.eprintf "uhc: injected fault at %s (%s)\n" (Fault.site_name site)
      key;
    1
  | Sys_error msg ->
    Printf.eprintf "uhc: %s\n" msg;
    1

(* Digest of the semantic configuration: two ledger records with equal
   config and corpus digests analyzed the same inputs the same way, so
   their deterministic counters are comparable.  [jobs] and the
   observation/output paths are deliberately excluded — outputs are
   byte-identical across those. *)
let config_digest (cfg : config) =
  let b = Buffer.create 256 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\000'
  in
  List.iter add cfg.paths;
  add (Option.value cfg.corpus ~default:"");
  add cfg.project;
  add (string_of_bool cfg.wopt);
  add (string_of_bool cfg.fuse);
  add (string_of_bool cfg.autopar);
  add (string_of_bool cfg.keep_going);
  List.iter add cfg.fault_specs;
  List.iter add cfg.analyses;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The schema_version 1 ledger record, as a single JSONL line.  Everything
   a later run (or dragon history/regress/explain) needs to compare itself
   against this one: identity (config/corpus digests), cost (wall, phases,
   the run's metrics diff), cache effectiveness per phase, solver work,
   analysis verdict tallies, and the per-PU content keys that explain
   invalidations. *)
let ledger_record ~(cfg : config) ~run_id ~code ~wall_s ~corpus_digest ~pus
    ~stats ~reports ~diag_count ~trace_path ~metrics_path ~outputs ~metrics =
  let open Obs.Json in
  let int n = Num (float_of_int n) in
  let strings l = List (List.map (fun s -> Str s) l) in
  let path k = function Some p -> [ (k, Str p) ] | None -> [] in
  (* engine statistics: phases, per-phase cache effectiveness, solver *)
  let engine =
    match stats with
    | None -> [ ("analyzed", Bool false) ]
    | Some (s : Engine.Stats.t) ->
      [
        ("analyzed", Bool true);
        ("pus_analyzed", int s.s_pus);
        ( "phases",
          List
            (List.map
               (fun (p : Engine.Stats.phase) ->
                 Obj
                   [
                     ("name", Str p.ph_name);
                     ("wall_s", Num p.ph_wall);
                     ("alloc_bytes", Num (Float.round p.ph_alloc));
                   ])
               s.s_phases) );
        ( "cache",
          Obj
            [
              ("collect_hits", int s.s_collect_hits);
              ("collect_misses", int s.s_collect_misses);
              ("summary_hits", int s.s_summary_hits);
              ("summary_misses", int s.s_summary_misses);
            ] );
        ( "solver",
          Obj
            (List.map
               (fun (k, v) -> (k, int v))
               (Linear.Solver_stats.to_alist s.s_solver)) );
      ]
  in
  (* verdict tallies: each analysis' summary lines, e.g.
     verdicts.bounds.safe *)
  let tally (k, v) =
    (k, match int_of_string_opt v with Some n -> int n | None -> Str v)
  in
  let verdicts =
    List.map
      (fun (r : Analyses.Report.t) ->
        (r.r_analysis, Obj (List.map tally r.r_summary)))
      reports
  in
  render
    (Obj
       ([
          ("schema_version", int Obs.Ledger.schema_version);
          ("run_id", Str run_id);
          ("ts", Num (Unix.gettimeofday ()));
          ("project", Str cfg.project);
          ("corpus", Str (Option.value cfg.corpus ~default:"-"));
          ("jobs", int cfg.jobs);
          ("analyses", strings cfg.analyses);
          ("config_digest", Str (config_digest cfg));
          ("corpus_digest", Str corpus_digest);
          ("exit_code", int code);
          ("wall_s", Num wall_s);
        ]
       @ path "trace_path" trace_path
       @ path "metrics_path" metrics_path
       @ [ ("outputs", strings outputs) ]
       @ engine
       @ [
           ("verdicts", Obj verdicts);
           ("diagnostics", int diag_count);
           ("metrics", Obs.Metrics.to_json metrics);
           ("pus", List (List.map Obs.Ledger.pu_to_json pus));
         ]))

(* The rules a ledger record obeys, beside the writer above: every member
   [ledger_record] writes, with its type; the phases, cache and solver
   sections when the run analyzed; the metrics through their reader and
   every pu entry through [Obs.Ledger.pu_of_json]. *)
let check_ledger_record subject record =
  let open Obs.Json in
  let fail fmt = Printf.ksprintf (fun m -> malformed "%s %s" subject m) fmt in
  let mem f = member f record in
  let get f what conv =
    match Option.bind (mem f) conv with
    | Some v -> v
    | None -> fail "lacks %s %S" what f
  in
  let str f = get f "string" to_string in
  let num f = get f "number" to_float in
  let int_ f = get f "integer" to_int in
  let list_ f = get f "list" to_list in
  try
    require_version ~what:subject Obs.Ledger.schema_version record;
    if str "run_id" = "" then fail "has empty run_id";
    ignore (num "ts");
    if String.length (str "config_digest") <> 32 then
      fail "config_digest is not a 32-char hex digest";
    ignore (str "corpus_digest");
    ignore (int_ "exit_code");
    if num "wall_s" < 0. then fail "has negative wall_s";
    ignore (int_ "jobs");
    ignore (list_ "analyses");
    ignore (list_ "outputs");
    (match mem "analyzed" with
    | Some (Bool false) -> ()
    | Some (Bool true) -> (
      ignore (int_ "pus_analyzed");
      List.iter
        (fun p ->
          match Option.bind (member "name" p) to_string with
          | None -> fail "phase without name"
          | Some name -> (
            match Option.bind (member "wall_s" p) to_float with
            | Some w when w >= 0. -> ()
            | _ -> fail "phase %S lacks wall_s" name))
        (list_ "phases");
      let cache =
        match mem "cache" with
        | Some (Obj _ as c) -> c
        | _ -> fail "lacks cache section"
      in
      List.iter
        (fun f ->
          match Option.bind (member f cache) to_int with
          | Some n when n >= 0 -> ()
          | _ -> fail "cache section lacks counter %S" f)
        [ "collect_hits"; "collect_misses"; "summary_hits"; "summary_misses" ];
      match mem "solver" with
      | Some (Obj kvs) ->
        List.iter
          (fun (k, v) ->
            if to_int v = None then
              fail "solver counter %S is not an integer" k)
          kvs
      | _ -> fail "lacks solver section")
    | _ -> fail "lacks boolean \"analyzed\"");
    (match mem "verdicts" with
    | Some (Obj _) -> ()
    | _ -> fail "lacks verdicts object");
    if int_ "diagnostics" < 0 then fail "negative diagnostics";
    (match Obs.Metrics.of_json (List (list_ "metrics")) with
    | Ok _ -> ()
    | Error e -> fail "metrics: %s" e);
    List.iter
      (fun p ->
        match Obs.Ledger.pu_of_json p with
        | Ok _ -> ()
        | Error e -> fail "%s" e)
      (list_ "pus");
    Ok ()
  with Malformed m -> Error m

let run (cfg : config) =
  Obs.Log.set_level cfg.log_level;
  (* the ledger lives in the cache directory: without one it is off *)
  let ledger_on = cfg.ledger && cfg.cache_dir <> None in
  let run_id = if ledger_on then Some (Obs.Ledger.new_run_id ()) else None in
  (* collision-safe observation paths: with the ledger active, --trace and
     --metrics files are suffixed with the run id (trace.json ->
     trace-<run_id>.json) so concurrent runs sharing a directory never
     clobber each other; without it the user's exact path is kept *)
  let obs_path path =
    match run_id with
    | Some id -> Obs.Ledger.suffixed_path ~run_id:id path
    | None -> path
  in
  let trace_path = Option.map obs_path cfg.trace in
  let metrics_path = Option.map obs_path cfg.metrics in
  if trace_path <> None then begin
    Obs.Trace.clear ();
    Obs.Span.set_enabled true
  end;
  if metrics_path <> None || ledger_on then Obs.Metrics.set_enabled true;
  (* fault injection is this run's plan, bound below on the domain that
     runs the body (and by the pool on its workers): nothing to tear down,
     and no other run sees it *)
  let plan =
    match Fault.parse_specs cfg.fault_specs with
    | Ok specs -> Some specs
    | Error msg ->
      Printf.eprintf "uhc: %s\n" msg;
      None
  in
  Obs.Log.info "pipeline.start"
    [
      ("inputs", string_of_int (List.length cfg.paths));
      ("corpus", Option.value cfg.corpus ~default:"-");
      ("jobs", string_of_int cfg.jobs);
    ];
  (* every per-run number is a diff against this one reading *)
  let metrics0 = Obs.Metrics.snapshot () in
  let t0 = Obs.Trace.now_ns () in
  let diags = ref [] in
  let outputs = ref [] in
  let stats = ref None in
  let reports = ref [] in
  let ledger_acc = { la_corpus_digest = ""; la_pus = [] } in
  Fun.protect
    ~finally:(fun () ->
      (* flush observation files even when the pipeline failed: a trace of a
         crashed run is exactly what one wants to look at *)
      (match trace_path with
      | None -> ()
      | Some path ->
        Obs.Span.set_enabled false;
        Obs.Trace.save ~path;
        Obs.Log.info "trace.written" [ ("path", path) ]);
      match metrics_path with
      | None -> ()
      | Some path ->
        Obs.Metrics.save ~path
          (Obs.Metrics.diff (Obs.Metrics.snapshot ()) metrics0);
        Obs.Log.info "metrics.written" [ ("path", path) ])
    (fun () ->
      let code =
        match plan with
        | None -> 2
        | Some plan ->
          Fault.with_plan plan (fun () ->
              Obs.Span.with_ ~cat:"phase" ~name:"pipeline" (fun () ->
                  exec_body ~metrics0 ~diags ~outputs ~stats ~reports
                    ~ledger_acc cfg))
      in
      let metrics = Obs.Metrics.diff (Obs.Metrics.snapshot ()) metrics0 in
      let diags = List.rev !diags in
      (match cfg.diagnostics with
      | None -> ()
      | Some path ->
        Fault.Diag.save ~path diags;
        outputs := path :: !outputs;
        Printf.printf "wrote %s\n" path);
      if diags <> [] then
        Printf.eprintf "uhc: %d diagnostic(s) recorded%s\n"
          (List.length diags)
          (match cfg.diagnostics with
          | Some p -> Printf.sprintf " (see %s)" p
          | None -> "");
      (match (run_id, cfg.cache_dir) with
      | Some id, Some cache_dir -> (
        let wall_s = float_of_int (Obs.Trace.now_ns () - t0) /. 1e9 in
        let record =
          ledger_record ~cfg ~run_id:id ~code ~wall_s
            ~corpus_digest:ledger_acc.la_corpus_digest
            ~pus:ledger_acc.la_pus ~stats:!stats
            ~reports:(List.rev !reports) ~diag_count:(List.length diags)
            ~trace_path ~metrics_path ~outputs:(List.rev !outputs) ~metrics
        in
        try
          let path = Obs.Ledger.append ~cache_dir ~run_id:id record in
          Obs.Log.info "ledger.written" [ ("path", path); ("run_id", id) ]
        with Sys_error e ->
          Printf.eprintf "uhc: ledger write failed: %s\n" e)
      | _ -> ());
      Obs.Log.info "pipeline.done"
        [
          ("exit", string_of_int code);
          ("diagnostics", string_of_int (List.length diags));
          ( "wall_ms",
            Printf.sprintf "%.1f"
              (float_of_int (Obs.Trace.now_ns () - t0) /. 1e6) );
        ];
      {
        r_code = code;
        r_outputs = List.rev !outputs;
        r_stats = !stats;
        r_diags = diags;
        r_reports = List.rev !reports;
      })
