(* End-to-end CLI tests: the uhc and dragon binaries as processes, through
   the on-disk project workflow of the paper's Section V-B. *)

(* the binaries sit next to this test executable's directory
   (_build/default/{test,bin}), whatever the working directory *)
let exe name =
  let build = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat build "bin") (name ^ ".exe")

let run_capture cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let temp_dir () =
  let d = Filename.temp_file "cli" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* a test that runs the binaries fails, never passes empty, without them *)
let require_binaries () =
  List.iter
    (fun name ->
      if not (Sys.file_exists (exe name)) then
        Alcotest.failf "%s not found (build it first: dune build)" (exe name))
    [ "uhc"; "dragon" ]

let test_uhc_project_workflow () =
  require_binaries ();
  let dir = temp_dir () in
  let status, out =
    run_capture
      (Printf.sprintf "%s --corpus matrix -o %s -p matrix" (exe "uhc") dir)
  in
  Alcotest.(check bool) "uhc exits 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "reports rows" true (contains out "array-region rows");
  Alcotest.(check bool) ".rgn written" true
    (Sys.file_exists (Filename.concat dir "matrix.rgn"));
  Alcotest.(check bool) ".dgn written" true
    (Sys.file_exists (Filename.concat dir "matrix.dgn"));
  Alcotest.(check bool) ".cfg written" true
    (Sys.file_exists (Filename.concat dir "matrix.cfg"));
  Alcotest.(check bool) "source copied" true
    (Sys.file_exists (Filename.concat dir "matrix.c"));
  (* dragon over the project *)
  let status, out =
    run_capture
      (Printf.sprintf "%s table -d %s -p matrix --find aarr" (exe "dragon") dir)
  in
  Alcotest.(check bool) "dragon exits 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "find reports" true (contains out "5 row(s)");
  let _, out =
    run_capture (Printf.sprintf "%s advise -d %s -p matrix" (exe "dragon") dir)
  in
  Alcotest.(check bool) "advisor output" true (contains out "copyin");
  let _, out =
    run_capture
      (Printf.sprintf "%s callgraph -d %s -p matrix --dot" (exe "dragon") dir)
  in
  Alcotest.(check bool) "dot graph" true (contains out "digraph")

let test_uhc_error_handling () =
  require_binaries ();
  let status, _ = run_capture (exe "uhc") in
  Alcotest.(check bool) "no inputs: exit 2" true (status = Unix.WEXITED 2);
  let bad = Filename.temp_file "bad" ".f" in
  let oc = open_out bad in
  output_string oc "      program broken\n      do i = \n      end\n";
  close_out oc;
  let status, out = run_capture (Printf.sprintf "%s %s" (exe "uhc") bad) in
  Alcotest.(check bool) "syntax error: exit 1" true (status = Unix.WEXITED 1);
  Alcotest.(check bool) "diagnostic printed" true (contains out "error");
  (* --workers survives only for existing command lines: 0 is accepted,
     any other count is a usage error that points at --jobs *)
  let status, out =
    run_capture
      (Printf.sprintf "%s --corpus matrix --workers 2" (exe "uhc"))
  in
  Alcotest.(check bool) "--workers 2: nonzero exit" true
    (status <> Unix.WEXITED 0);
  Alcotest.(check bool) "--workers 2: message names --jobs" true
    (contains out "--jobs");
  let dir = temp_dir () in
  (* the benchmark's command line *)
  let status, out =
    run_capture
      (Printf.sprintf
         "%s --corpus matrix --cache-dir %s --analyses bounds,permissions \
          --report %s -o %s --jobs 1 --workers 0"
         (exe "uhc")
         (Filename.quote (Filename.concat dir "cache"))
         (Filename.quote (Filename.concat dir "report.json"))
         (Filename.quote (Filename.concat dir "out")))
  in
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "--workers 0 failed; its output:\n%s" out;
  Alcotest.(check bool) "--workers 0: report written" true
    (Sys.file_exists (Filename.concat dir "report.json"))

(* --corpus names a whole program: FILE arguments beside it are a usage
   error, never silently dropped *)
let test_uhc_corpus_with_files () =
  require_binaries ();
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () ->
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
  @@ fun () ->
  let b = Filename.concat dir "fig1.B" in
  let status, out =
    run_capture
      (Printf.sprintf "%s --corpus fig1 --emit-whirl %s -o %s" (exe "uhc")
         (Filename.quote b)
         (Filename.quote (Filename.concat dir "fig1")))
  in
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "--emit-whirl failed:\n%s" out;
  let src = Filename.concat dir "prog.f" in
  Out_channel.with_open_bin src (fun oc ->
      output_string oc (snd Corpus.Small.fig1_f));
  List.iter
    (fun input ->
      let out_dir = Filename.concat dir "out" in
      let status, out =
        run_capture
          (Printf.sprintf "%s %s --corpus matrix -o %s" (exe "uhc")
             (Filename.quote input) (Filename.quote out_dir))
      in
      Alcotest.(check bool) (input ^ ": exit 2") true (status = Unix.WEXITED 2);
      Alcotest.(check bool) (input ^ ": message names --corpus") true
        (contains out "--corpus");
      Alcotest.(check bool) (input ^ ": nothing written") false
        (Sys.file_exists (Filename.concat out_dir "project.rgn")))
    [ b; src ]

let test_dragon_missing_project () =
  require_binaries ();
  let dir = temp_dir () in
  let status, out =
    run_capture (Printf.sprintf "%s table -d %s -p nope" (exe "dragon") dir)
  in
  Alcotest.(check bool) "exit 1" true (status = Unix.WEXITED 1);
  Alcotest.(check bool) "mentions missing" true (contains out "missing")

let test_uhc_run_flag () =
  require_binaries ();
  let status, out =
    run_capture (Printf.sprintf "%s --corpus matrix --run" (exe "uhc"))
  in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "program output" true
    (contains out "statements executed");
  (* stride indexes out of bounds at run time: one uhc line names the
     place, the outputs are still written, and the exit code is 1 *)
  let dir = temp_dir () in
  let status, out =
    run_capture
      (Printf.sprintf "%s --corpus stride --run -o %s" (exe "uhc") dir)
  in
  Alcotest.(check bool) "runtime error exits 1" true
    (status = Unix.WEXITED 1);
  Alcotest.(check bool) "runtime error named" true
    (contains out "uhc: stride.f:13:9: runtime error: index -1 out of bounds");
  Alcotest.(check bool) "no internal error" false
    (contains out "internal error");
  Alcotest.(check bool) ".rgn still written" true
    (Sys.file_exists (Filename.concat dir "project.rgn"))

(* uhc --emit-whirl FILE.B, then uhc FILE.B: the run that resumes from
   the WHIRL file writes and prints what the run from source did.  Printed
   means stdout less the [wrote] lines (the source run also copies its
   sources) and the [wopt:] line of an optimizing source run, whose
   optimized module is what the file holds. *)
let test_uhc_whirl_file ~source ~run () =
  require_binaries ();
  let dir = temp_dir () in
  let path name = Filename.concat dir name in
  let read name = In_channel.with_open_bin (path name) In_channel.input_all in
  let uhc name args =
    let out = path name in
    let cmd =
      Printf.sprintf
        "%s %s%s --analyses bounds,permissions --report %s -o %s >%s 2>%s"
        (exe "uhc") args
        (if run then " --run" else "")
        (Filename.quote (path (name ^ ".json")))
        (Filename.quote out)
        (Filename.quote (path (name ^ ".out")))
        (Filename.quote (path (name ^ ".err")))
    in
    if Sys.command cmd <> 0 then
      Alcotest.failf "%s failed:\n%s" cmd (read (name ^ ".err"));
    String.split_on_char '\n' (read (name ^ ".out"))
    |> List.filter (fun l ->
           not
             (String.starts_with ~prefix:"wrote " l
             || String.starts_with ~prefix:"wopt: " l))
  in
  let b = path "prog.B" in
  let from_source =
    uhc "source" (Printf.sprintf "%s --emit-whirl %s" source (Filename.quote b))
  in
  let from_whirl = uhc "whirl" (Filename.quote b) in
  Alcotest.(check (list string)) "stdout" from_source from_whirl;
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (b ^ " equal") true (String.equal (read a) (read b)))
    (("source.json", "whirl.json")
    :: List.map
         (fun f -> (Filename.concat "source" f, Filename.concat "whirl" f))
         [ "project.rgn"; "project.dgn"; "project.cfg" ]);
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

(* The order fixture writes bound terms over several symbolic variables: two
   formals, a COMMON scalar, and callee locals that reach the caller's rows
   ([work:k], [inner:t] in [ms]).  Terms render in the order of their
   variables' ids: globals, then each procedure's locals in module and
   declaration order.  No corpus writes a constraint over two symbolic
   variables, so only this fixture sees that order change.  Its expected
   .rgn, .ipl and printed tables were recorded when it was added; every
   cache state and --jobs setting must reproduce them byte for byte. *)
let fixture name =
  (* dune runtest copies the fixtures beside this executable; a plain
     dune exec finds them in the source tree (_build/default/test/../../..) *)
  let test_dir = Filename.dirname Sys.executable_name in
  let beside =
    List.fold_left Filename.concat test_dir [ "fixtures"; "order" ]
  in
  let source =
    List.fold_left Filename.concat test_dir
      [ Filename.parent_dir_name; Filename.parent_dir_name;
        Filename.parent_dir_name; "test"; "fixtures"; "order" ]
  in
  Filename.concat (if Sys.file_exists beside then beside else source) name

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_order_fixture () =
  require_binaries ();
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () ->
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
  @@ fun () ->
  let cache = Filename.quote (Filename.concat dir "cache") in
  List.iter
    (fun (what, flags) ->
      let out = Filename.quote (Filename.concat dir what) in
      let status, printed =
        run_capture
          (Printf.sprintf
             "%s %s -o %s -p order --ipl %s \
              --analyses bounds,permissions,regions %s"
             (exe "uhc")
             (Filename.quote (fixture "order.f"))
             out out flags)
      in
      if status <> Unix.WEXITED 0 then
        Alcotest.failf "%s: uhc failed:\n%s" what printed;
      let tables =
        String.split_on_char '\n' printed
        |> List.filter (fun l ->
               not
                 (String.starts_with ~prefix:"wrote " l
                 || String.starts_with ~prefix:"uhc: " l))
        |> String.concat "\n"
      in
      Alcotest.(check string) (what ^ ": tables")
        (read_file (fixture "order.tables")) tables;
      List.iter
        (fun f ->
          Alcotest.(check string) (what ^ ": " ^ f) (read_file (fixture f))
            (read_file (Filename.concat (Filename.concat dir what) f)))
        [ "order.rgn"; "order.ipl" ])
    [
      ("nocache", "");
      ("cold", "--jobs 4 --cache-dir " ^ cache);
      ("warm", "--jobs 4 --cache-dir " ^ cache);
      ("warm1", "--jobs 1 --cache-dir " ^ cache);
    ]

(* the library entry point reports a usage error as a code, and returns:
   ending the caller's process is uhc's business alone *)
let test_pipeline_no_input () =
  let r = Pipeline.run Pipeline.default in
  Alcotest.(check int) "no paths, no corpus: code 2" 2 r.Pipeline.r_code;
  Alcotest.(check (list string)) "nothing written" [] r.Pipeline.r_outputs

let suite =
  [
    Alcotest.test_case "uhc project workflow" `Quick test_uhc_project_workflow;
    Alcotest.test_case "uhc error handling" `Quick test_uhc_error_handling;
    Alcotest.test_case "Pipeline.run without input returns 2" `Quick
      test_pipeline_no_input;
    Alcotest.test_case "uhc --corpus with FILE arguments" `Quick
      test_uhc_corpus_with_files;
    Alcotest.test_case "dragon missing project" `Quick test_dragon_missing_project;
    Alcotest.test_case "uhc --run" `Quick test_uhc_run_flag;
    Alcotest.test_case "uhc order fixture byte-identical" `Quick
      test_order_fixture;
  ]
  @ List.map
      (fun (name, source, run) ->
        Alcotest.test_case ("uhc FILE.B equals the source run: " ^ name) `Quick
          (test_uhc_whirl_file ~source ~run))
      [
        ("lu", "--corpus lu", false);
        ("lu --wopt", "--corpus lu --wopt", false);
        ("matrix", "--corpus matrix", true);
        ("fig1", "--corpus fig1", true);
        ("stride", "--corpus stride", false);
        ("gen-small", "--corpus gen-small", false);
      ]
