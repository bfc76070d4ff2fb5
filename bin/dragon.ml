(* dragon: the viewer-side tool (steps 3-4 of the paper's usage: load the
   .dgn project, then browse the array-analysis table, the call graph, the
   CFGs, the sources, and the advisor's findings). *)

open Cmdliner

let load dir project =
  match Dragon.Project.load ~dir ~project with
  | Ok p -> p
  | Error e ->
    Printf.eprintf "dragon: %s\n" e;
    exit 1

let dir_arg =
  Arg.(
    value & opt dir "." & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Project directory.")

let project_arg =
  Arg.(
    value & opt string "project"
    & info [ "p"; "project" ] ~docv:"NAME" ~doc:"Project name (.dgn base).")

let table_cmd =
  let scope =
    Arg.(
      value
      & opt (some string) None
      & info [ "scope" ] ~docv:"PROC" ~doc:"Restrict to one procedure (or @).")
  in
  let find =
    Arg.(
      value
      & opt (some string) None
      & info [ "find" ] ~docv:"ARRAY" ~doc:"Highlight rows of this array.")
  in
  let color = Arg.(value & flag & info [ "color" ] ~doc:"ANSI colors.") in
  let sort =
    Arg.(
      value & opt string "source"
      & info [ "sort" ] ~docv:"KEY"
          ~doc:"Row order: source, density, refs, size, array.")
  in
  let modes =
    Arg.(
      value
      & opt (some string) None
      & info [ "mode" ] ~docv:"MODES"
          ~doc:"Comma-separated mode filter (e.g. USE,DEF).")
  in
  let run dir project scope find color sort modes =
    let p = load dir project in
    let sort =
      match Dragon.Table.sort_key_of_string sort with
      | Some k -> k
      | None ->
        Printf.eprintf "dragon: unknown sort key %S\n" sort;
        exit 1
    in
    let modes = Option.map (String.split_on_char ',') modes in
    let options = { Dragon.Table.default_options with color; sort; modes } in
    print_string (Dragon.Table.render ~options ?scope ?find p)
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Show the array analysis graph (tabular view).")
    Term.(const run $ dir_arg $ project_arg $ scope $ find $ color $ sort $ modes)

let callgraph_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT.") in
  let run dir project dot =
    let p = load dir project in
    print_string
      (if dot then Dragon.Graphs.callgraph_dot p
       else Dragon.Graphs.callgraph_ascii p)
  in
  Cmd.v
    (Cmd.info "callgraph" ~doc:"Show the call graph (Fig 11).")
    Term.(const run $ dir_arg $ project_arg $ dot)

let cfg_cmd =
  let proc = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROC") in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT.") in
  let run dir project proc dot =
    let p = load dir project in
    let view = if dot then Dragon.Graphs.cfg_dot else Dragon.Graphs.cfg_ascii in
    match view p ~proc with
    | Some s -> print_string s
    | None ->
      Printf.eprintf "dragon: no CFG for %s\n" proc;
      exit 1
  in
  Cmd.v
    (Cmd.info "cfg" ~doc:"Show a procedure's control-flow graph.")
    Term.(const run $ dir_arg $ project_arg $ proc $ dot)

let grep_cmd =
  let needle = Arg.(required & pos 0 (some string) None & info [] ~docv:"TEXT") in
  let word =
    Arg.(value & flag & info [ "w"; "word" ] ~doc:"Whole-word (array) match.")
  in
  let run dir project needle word =
    let p = load dir project in
    (* a search over missing files would print 0 hits, as if it had looked *)
    (match
       List.filter
         (fun (src, _) -> not (List.mem_assoc src p.Dragon.Project.sources))
         p.Dragon.Project.dgn.Rgnfile.Files.dgn_sources
     with
    | [] -> ()
    | missing ->
      Printf.eprintf
        "dragon: the sources of project %s are missing: %s (a project \
         written from a .B file has no source copies)\n"
        project
        (String.concat ", " (List.map fst missing));
      exit 1);
    let hits =
      if word then Dragon.Browse.grep_array p needle
      else Dragon.Browse.grep p needle
    in
    List.iter
      (fun h ->
        Printf.printf "%s:%d: %s\n" h.Dragon.Browse.h_file
          h.Dragon.Browse.h_line h.Dragon.Browse.h_text)
      hits;
    Printf.printf "%d hit(s)\n" (List.length hits)
  in
  Cmd.v
    (Cmd.info "grep" ~doc:"Search the project sources (the GUI's grep box).")
    Term.(const run $ dir_arg $ project_arg $ needle $ word)

let locate_cmd =
  let array = Arg.(required & pos 0 (some string) None & info [] ~docv:"ARRAY") in
  let run dir project array =
    let p = load dir project in
    let rows = Dragon.Table.find_rows p array in
    if rows = [] then begin
      Printf.eprintf "dragon: no rows for array %s\n" array;
      exit 1
    end;
    List.iter
      (fun (r : Rgnfile.Row.t) ->
        Printf.printf "%s %s [%s:%s:%s] at %s line %d\n" r.Rgnfile.Row.array
          r.Rgnfile.Row.mode r.Rgnfile.Row.lb r.Rgnfile.Row.ub
          r.Rgnfile.Row.stride r.Rgnfile.Row.file r.Rgnfile.Row.line;
        match Dragon.Browse.locate_row p r with
        | Some excerpt -> print_string excerpt
        | None -> ())
      rows
  in
  Cmd.v
    (Cmd.info "locate" ~doc:"Show each access of an array in the source.")
    Term.(const run $ dir_arg $ project_arg $ array)

let diff_cmd =
  let before =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BEFORE.rgn")
  in
  let after =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"AFTER.rgn")
  in
  let run before after =
    let load_rows path =
      match Rgnfile.Files.parse_rgn (Rgnfile.Files.load ~path) with
      | Ok rows -> rows
      | Error e ->
        Printf.eprintf "dragon: %s: %s\n" path e;
        exit 1
    in
    let d = Dragon.Diff.diff (load_rows before) (load_rows after) in
    print_string (Dragon.Diff.render d);
    if Dragon.Diff.is_empty d then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two .rgn files (e.g. before/after a transformation).")
    Term.(const run $ before $ after)

let browse_cmd =
  let run dir project =
    let p = load dir project in
    Dragon.Repl.run p
  in
  Cmd.v
    (Cmd.info "browse"
       ~doc:"Interactive browser: table/find/grep/locate/callgraph/cfg/advise \
             commands over the loaded project.")
    Term.(const run $ dir_arg $ project_arg)

let html_cmd =
  let out =
    Arg.(
      value & opt string "dragon.html"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output HTML file.")
  in
  let run dir project out =
    let p = load dir project in
    Dragon.Html.save p ~path:out;
    Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "html"
       ~doc:"Write a self-contained HTML report (table with live find, call \
             graph, sources, advisor).")
    Term.(const run $ dir_arg $ project_arg $ out)

let profile_cmd =
  let trace_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.json")
  in
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows per table (0 = all); the phase table is never cut.")
  in
  let folded =
    Arg.(
      value & flag
      & info [ "folded" ]
          ~doc:"Emit collapsed stacks (one line per stack, \
                $(i,phase;parent;leaf self_us)) instead of tables — the \
                input format of flamegraph.pl / inferno / speedscope.")
  in
  let run path top folded =
    let rendered =
      if folded then Dragon.Profile.folded_of_file ~path
      else Dragon.Profile.of_file ~top ~path ()
    in
    match rendered with
    | Ok s -> print_string s
    | Error e ->
      Printf.eprintf "dragon: %s: %s\n" path e;
      exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Render a uhc --trace file as sorted per-phase/per-PU tables \
             (or collapsed flamegraph stacks with $(b,--folded)).")
    Term.(const run $ trace_file $ top $ folded)

let report_cmd =
  let report_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"REPORT.json")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "analysis" ] ~docv:"NAME"
          ~doc:"Show only this analysis (e.g. bounds); default all.")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List the analyses present.")
  in
  let run path only list_only =
    let parsed =
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error e -> Error e
      | text -> Analyses.Report.parse text
    in
    match parsed with
    | Error e ->
      Printf.eprintf "dragon: %s: %s\n" path e;
      exit 1
    | Ok reports ->
      let names = List.map (fun r -> r.Analyses.Report.r_analysis) reports in
      if list_only then List.iter print_endline names
      else begin
        (match only with
        | Some name when not (List.mem name names) ->
          Printf.eprintf "dragon: no %S report in %s (have: %s)\n" name path
            (String.concat ", " names);
          exit 1
        | _ -> ());
        (* each table as uhc --analyses prints it *)
        List.iter
          (fun (r : Analyses.Report.t) ->
            if Option.fold ~none:true ~some:(String.equal r.r_analysis) only
            then Format.printf "@[<v>%a@]@?" Analyses.Report.render r)
          reports
      end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render a uhc --report JSON file (client-analysis verdicts and \
             permission preconditions) as tables.")
    Term.(const run $ report_file $ only $ list_only)

(* ---- run-ledger consumers (uhc --cache-dir writes the records) ------ *)

let cache_dir_arg =
  Arg.(
    required
    & opt (some dir) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"The uhc --cache-dir whose ledger/ subdirectory holds the run \
              records.")

let load_ledger cache_dir =
  match Dragon.Ledgerview.load ~cache_dir with
  | Ok runs -> runs
  | Error e ->
    Printf.eprintf "dragon: %s\n" e;
    exit 1

let history_cmd =
  let metrics =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"METRIC"
          ~doc:"Dotted paths into the records, e.g. wall_s, \
                cache.summary_misses, solver.queries, jobs, \
                verdicts.bounds.unsafe; default wall_s.")
  in
  let last =
    Arg.(
      value & opt int 10
      & info [ "last" ] ~docv:"N" ~doc:"Show the newest N runs (default 10).")
  in
  let run cache_dir metrics last =
    let runs = load_ledger cache_dir in
    let metrics = if metrics = [] then [ "wall_s" ] else metrics in
    print_string (Dragon.Ledgerview.history ~last ~metrics runs)
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"Trend tables with sparklines over the recorded runs of a uhc \
             cache directory.")
    Term.(const run $ cache_dir_arg $ metrics $ last)

let regress_cmd =
  let thresholds =
    Arg.(
      value
      & opt_all string []
      & info [ "threshold" ] ~docv:"PATH=PCT"
          ~doc:"Allow metric PATH to exceed the baseline by PCT percent \
                (repeatable); 0 forbids any increase, a negative value \
                demands a decrease.  Default: the deterministic gates \
                verdicts.bounds.unsafe=0, verdicts.bounds.maybe=0, \
                diagnostics=0.")
  in
  let baseline =
    Arg.(
      value & opt int 1
      & info [ "baseline" ] ~docv:"N"
          ~doc:"Average the N same-config runs preceding the candidate \
                (default 1).")
  in
  let run cache_dir thresholds baseline =
    let rules =
      List.map
        (fun s ->
          match Dragon.Ledgerview.parse_rule s with
          | Ok r -> r
          | Error e ->
            Printf.eprintf "dragon: %s\n" e;
            exit 2)
        thresholds
    in
    let runs = load_ledger cache_dir in
    match Dragon.Ledgerview.regress ~baseline ~rules runs with
    | Error e ->
      Printf.eprintf "dragon: %s\n" e;
      exit 2
    | Ok (report, breached) ->
      print_string report;
      exit (if breached then 1 else 0)
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:"Gate the newest recorded run against its predecessors: exits 1 \
             when any threshold is breached, 0 otherwise (a CI gate).")
    Term.(const run $ cache_dir_arg $ thresholds $ baseline)

let explain_cmd =
  let target =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"PU|FILE"
          ~doc:"A procedure name, a recorded source path, or a file \
                basename.")
  in
  let run cache_dir target =
    let runs = load_ledger cache_dir in
    match Dragon.Ledgerview.explain ~target runs with
    | Ok s -> print_string s
    | Error e ->
      Printf.eprintf "dragon: %s\n" e;
      exit 1
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Why was this procedure re-analyzed in the newest run?  Names \
             the changed content key (own body vs which callee), the blast \
             radius, and the verdict delta.")
    Term.(const run $ cache_dir_arg $ target)

let advise_cmd =
  let run dir project =
    let p = load dir project in
    print_string (Dragon.Advisor.render p)
  in
  Cmd.v
    (Cmd.info "advise" ~doc:"Print optimization guidance derived from the table.")
    Term.(const run $ dir_arg $ project_arg)

let main =
  let doc = "interactive array-region analysis viewer (Dragon)" in
  Cmd.group
    (Cmd.info "dragon" ~doc)
    [ table_cmd; callgraph_cmd; cfg_cmd; grep_cmd; locate_cmd; advise_cmd; html_cmd;
      browse_cmd; diff_cmd; profile_cmd; report_cmd; history_cmd; regress_cmd;
      explain_cmd ]

let () = exit (Cmd.eval main)
