(* Helper executable for perfbench/run.py.

     pbtool version
       prints the OCaml version this binary was compiled with.

     pbtool corpus lu|gen|gen-small DIR
       writes the sources of a built-in corpus into DIR: the same
       (file, contents) pairs `uhc --corpus NAME` analyzes in memory.

     pbtool trace LAYERS CACHE REPORT OUT SRC...
       performs the work of
         uhc SRC... --cache-dir CACHE --analyses bounds,permissions
             --report REPORT -o OUT
       by calling each layer's public entry point in the order
       Pipeline.run does, timing every call, and writes the timings and
       the layers' own counters to LAYERS as one JSON object.  Console
       output matches uhc's apart from the closing summary lines.  The
       run ledger is not appended (Pipeline's ledger_record is
       private), so its cost shows as negative trace overhead.

   The trace is recorded here, around the calls into each layer, so the
   program under test carries no benchmark-only instrumentation. *)

(* Taken after every linked library has run its module initializers:
   the time from spawn to here is process start-up. *)
let t_main = Unix.gettimeofday ()

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("pbtool: " ^ s);
      exit 2)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let corpus_files = function
  | "lu" -> Corpus.Nas_lu.files ()
  | "gen" -> Corpus.Gen.(generate (standard ()))
  | "gen-small" -> Corpus.Gen.(generate default)
  | other -> die "unknown corpus %S (lu|gen|gen-small)" other

let write_corpus name dir =
  let files = corpus_files name in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (file, contents) ->
      write_file (Filename.concat dir (Filename.basename file)) contents)
    files

(* ------------------------------------------------------------------ *)
(* Traced run *)

let clients = [ "bounds"; "permissions" ]

let trace ~layers_out ~cache_dir ~report ~out_dir paths =
  (* uhc turns the metrics registry on whenever the run ledger is on,
     which is whenever --cache-dir is given *)
  Obs.Metrics.set_enabled true;
  let layers = ref [] in
  let time name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    layers := (name, Unix.gettimeofday () -. t0) :: !layers;
    r
  in
  let files =
    time "io.read_s" (fun () ->
        let files = List.map (fun p -> (p, read_file p)) paths in
        (* the input digest Pipeline takes for the run ledger *)
        List.iter (fun (_, c) -> ignore (Digest.string c)) files;
        files)
  in
  let prog = time "lang.load_s" (fun () -> Lang.Frontend.load ~files) in
  let m0 = time "whirl.lower_s" (fun () -> Whirl.Lower.lower prog) in
  let store =
    time "engine_store.open_s" (fun () -> Engine_store.create ~dir:cache_dir ())
  in
  let er =
    time "engine.run_s" (fun () ->
        Engine.run (Engine.config ~jobs:1 ~workers:0 ~store ()) m0)
  in
  let result = er.Engine.e_result in
  let ctx =
    {
      Analyses.Analysis.ctx_module = result.Ipa.Analyze.r_module;
      ctx_result = result;
    }
  in
  let outcomes =
    List.concat_map
      (fun name ->
        time
          ("analyses." ^ name ^ "_s")
          (fun () -> Analyses.Registry.run_selected ~selection:[ name ] ctx))
      clients
  in
  time "analyses.render_s" (fun () ->
      List.iter
        (fun (r, _) -> Format.printf "@[<v>%a@]@?" Analyses.Report.render r)
        outcomes);
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let written =
    time "rgnfile.write_s" (fun () ->
        Ipa.Analyze.write_outputs result ~dir:out_dir ~project:"project")
  in
  time "rgnfile.copy_sources_s" (fun () ->
      List.iter
        (fun (name, contents) ->
          Rgnfile.Files.save
            ~path:(Filename.concat out_dir (Filename.basename name))
            contents)
        files);
  List.iter (Printf.printf "wrote %s\n") written;
  time "analyses.report_save_s" (fun () ->
      Analyses.Report.save ~path:report (List.map fst outcomes));
  Printf.printf "wrote %s\n" report;
  flush stdout;
  let st = er.Engine.e_stats in
  let phase name =
    List.find_opt (fun p -> p.Engine.Stats.ph_name = name) st.Engine.Stats.s_phases
  in
  (* whole-process solver counters: the engine's share (Stats.s_solver)
     plus the clients' queries *)
  let sv = Linear.Solver_stats.snapshot () in
  let counter name = Obs.Metrics.Counter.get (Obs.Metrics.counter name) in
  let gc = Gc.quick_stat () in
  let mb bytes = bytes /. 1e6 in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let values =
    List.concat_map
      (fun name ->
        match phase name with
        | Some p -> [ (Printf.sprintf "engine.%s_s" name, p.Engine.Stats.ph_wall) ]
        | None -> [])
      [ "prepare"; "digest"; "collect"; "summarize"; "assemble" ]
    @ List.filter_map
        (fun name ->
          Option.map
            (fun p -> (Printf.sprintf "engine.%s_alloc_mb" name, mb p.Engine.Stats.ph_alloc))
            (phase name))
        [ "collect"; "summarize" ]
    @ Engine.Stats.
        [
          ( "engine.collect_hit_rate",
            ratio st.s_collect_hits (st.s_collect_hits + st.s_collect_misses) );
          ( "engine.summary_hit_rate",
            ratio st.s_summary_hits (st.s_summary_hits + st.s_summary_misses) );
          ("engine.collect_misses", float_of_int st.s_collect_misses);
          ("engine.summary_misses", float_of_int st.s_summary_misses);
          ("engine.pus", float_of_int st.s_pus);
        ]
    @ [
        ("engine_store.disk_read_mb", mb (float_of_int (counter "store.disk.read_bytes")));
        ("engine_store.disk_write_mb", mb (float_of_int (counter "store.disk.write_bytes")));
        ("engine_store.publish_skips", float_of_int (counter "store.publish_skips"));
        ("engine_store.retries", float_of_int (counter "store.retries"));
      ]
    @ Linear.Solver_stats.
        [
          ("linear.feasible_queries", float_of_int sv.queries);
          ("linear.implies_queries", float_of_int sv.implies_queries);
          ("linear.implies_memo_hit_rate", ratio sv.implies_memo_hits sv.implies_queries);
          ("linear.fm_runs", float_of_int sv.fm_runs);
          ( "linear.feasible_s",
            float_of_int (sv.wall_fast_ns + sv.wall_reference_ns) /. 1e9 );
          ("linear.implies_s", float_of_int sv.implies_wall_ns /. 1e9);
        ]
    @ [
        ("gc.major_collections", float_of_int gc.Gc.major_collections);
        ( "gc.top_heap_mb",
          mb (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8))) );
      ]
  in
  let b = Buffer.create 2048 in
  let obj name fields =
    Printf.bprintf b ",\"%s\":{" name;
    List.iteri
      (fun i (k, v) -> Printf.bprintf b "%s\"%s\":%.9g" (if i = 0 then "" else ",") k v)
      fields;
    Buffer.add_char b '}'
  in
  Printf.bprintf b "{\"t_main\":%.6f" t_main;
  obj "layers" (List.rev !layers);
  obj "values" values;
  Printf.bprintf b ",\"t_end\":%.6f}\n" (Unix.gettimeofday ());
  write_file layers_out (Buffer.contents b)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "version" ] -> print_endline Sys.ocaml_version
  | [ "corpus"; name; dir ] -> write_corpus name dir
  | "trace" :: layers_out :: cache_dir :: report :: out_dir :: (_ :: _ as srcs) ->
    trace ~layers_out ~cache_dir ~report ~out_dir srcs
  | _ -> die "usage: pbtool version | corpus lu|gen|gen-small DIR | trace LAYERS CACHE REPORT OUT SRC..."
