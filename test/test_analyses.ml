(* The client-analysis layer (lib/analyses): bounds verdicts, permission
   preconditions, the report schema, and the differential soundness of the
   bounds client against the interpreter's ground truth. *)

let ctx_of (result : Ipa.Analyze.result) =
  {
    Analyses.Analysis.ctx_module = result.Ipa.Analyze.r_module;
    Analyses.Analysis.ctx_result = result;
  }

let bounds_report src =
  let result = Engine.analyze_sources [ ("t.f", src) ] in
  fst (Analyses.Bounds.run (ctx_of result))

(* bounds report columns: Proc Array Mode Line Via Verdict LB UB Stride *)
let verdict row = List.nth row 5
let summary_int (r : Analyses.Report.t) key =
  match List.assoc_opt key r.Analyses.Report.r_summary with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "summary key %s missing" key

let test_bounds_fig1 () =
  let result = Engine.analyze_sources [ Corpus.Small.fig1_f ] in
  let r = fst (Analyses.Bounds.run (ctx_of result)) in
  Alcotest.(check int) "accesses" 6 (summary_int r "accesses");
  Alcotest.(check int) "safe" 6 (summary_int r "safe");
  Alcotest.(check int) "eliminated = safe" (summary_int r "safe")
    (summary_int r "checks_eliminated");
  Alcotest.(check int) "residual = maybe" (summary_int r "maybe")
    (summary_int r "residual_checks");
  List.iter
    (fun row -> Alcotest.(check string) "verdict" "safe" (verdict row))
    r.Analyses.Report.r_rows

let oob_src =
  "      program oob\n\
  \      integer a(1:10), idx(1:10)\n\
  \      integer i, s\n\
  \      s = 0\n\
  \      do i = 1, 10\n\
  \        a(i + 5) = i\n\
  \      end do\n\
  \      do i = 1, 10\n\
  \        s = s + a(idx(i))\n\
  \      end do\n\
  \      do i = 12, 20\n\
  \        a(i) = 0\n\
  \      end do\n\
  \      print *, s\n\
  \      end\n"

let test_bounds_three_valued () =
  let r = bounds_report oob_src in
  Alcotest.(check int) "accesses" 4 (summary_int r "accesses");
  Alcotest.(check int) "safe" 1 (summary_int r "safe");
  Alcotest.(check int) "unsafe" 1 (summary_int r "unsafe");
  Alcotest.(check int) "maybe" 2 (summary_int r "maybe");
  (* the messy subscript a(idx(i)) clamps into the declared extents, so its
     interval box lies inside the array — the clamp marker must keep it out
     of "safe" (the region under-approximates the runtime accesses) *)
  List.iter
    (fun row ->
      if List.nth row 8 = "*" && List.nth row 1 = "a" then
        Alcotest.(check string) "clamped messy access" "maybe" (verdict row);
      if List.nth row 6 = "12" then
        Alcotest.(check string) "entirely-OOB loop" "unsafe" (verdict row))
    r.Analyses.Report.r_rows

(* permissions report columns: Proc Array Kind Permission LB UB Stride Exact
   Count *)
let test_permissions_fig1 () =
  let result = Engine.analyze_sources [ Corpus.Small.fig1_f ] in
  let r = fst (Analyses.Permissions.run (ctx_of result)) in
  Alcotest.(check int) "procedures" 3 (summary_int r "procedures");
  Alcotest.(check int) "reads" 2 (summary_int r "read_preconditions");
  Alcotest.(check int) "writes" 2 (summary_int r "write_preconditions");
  let has proc perm lb ub =
    List.exists
      (fun row ->
        List.nth row 0 = proc
        && List.nth row 3 = perm
        && List.nth row 4 = lb
        && List.nth row 5 = ub)
      r.Analyses.Report.r_rows
  in
  Alcotest.(check bool) "add writes a(1:100)" true
    (has "add" "write" "1|1" "100|100");
  Alcotest.(check bool) "add reads a(101:200)" true
    (has "add" "read" "101|101" "200|200");
  Alcotest.(check bool) "p1 writes" true (has "p1" "write" "1|1" "100|100");
  Alcotest.(check bool) "p2 reads" true (has "p2" "read" "101|101" "200|200")

let test_registry () =
  Alcotest.(check (list string))
    "builtins" [ "bounds"; "permissions"; "regions"; "diffcheck" ]
    (Analyses.Registry.names ());
  (match Analyses.Registry.parse_selection "bounds, permissions" with
  | Ok names ->
    Alcotest.(check (list string)) "parse" [ "bounds"; "permissions" ] names
  | Error e -> Alcotest.failf "parse_selection failed: %s" e);
  match Analyses.Registry.parse_selection "bounds,nope" with
  | Ok _ -> Alcotest.fail "unknown name accepted"
  | Error e ->
    Alcotest.(check bool) "message names the unknown" true
      (String.length e > 0
      && String.sub e 0 (String.length "unknown analyses") = "unknown analyses")

let test_report_schema () =
  let result = Engine.analyze_sources [ Corpus.Small.fig1_f ] in
  let ctx = ctx_of result in
  let reports =
    List.map fst
      (Analyses.Registry.run_selected
         ~selection:[ "bounds"; "permissions" ]
         ctx)
  in
  let json = Analyses.Report.json_of_reports reports in
  let prefix = "{\n  \"schema_version\": 1," in
  Alcotest.(check string) "versioned prefix" prefix
    (String.sub json 0 (String.length prefix));
  (match Analyses.Report.parse json with
  | Ok parsed ->
    Alcotest.(check string) "parse then json is the identity" json
      (Analyses.Report.json_of_reports parsed)
  | Error e -> Alcotest.failf "Report.parse rejects its own output: %s" e);
  (* dragon report prints exactly the tables uhc printed, for a whole
     file with a report that has no rows (stride's permissions) *)
  Test_cli.require_binaries ();
  let dir = Test_cli.temp_dir () in
  let file = Filename.concat dir "report.json" in
  let stdout_of cmd =
    let out = Filename.concat dir "stdout" in
    let code = Sys.command (Printf.sprintf "%s > %s 2>/dev/null" cmd out) in
    Alcotest.(check int) (cmd ^ " exits 0") 0 code;
    In_channel.with_open_bin out In_channel.input_all
  in
  let uhc =
    stdout_of
      (Printf.sprintf
         "%s --corpus stride --analyses bounds,permissions,regions \
          --report %s"
         (Test_cli.exe "uhc") file)
  in
  (* the tables are what uhc prints before its "wrote" line *)
  let rec tables = function
    | l :: _ when String.starts_with ~prefix:"wrote " l -> ""
    | l :: rest -> l ^ "\n" ^ tables rest
    | [] -> Alcotest.failf "uhc printed no wrote line: %s" uhc
  in
  let tables = tables (String.split_on_char '\n' uhc) in
  Alcotest.(check bool) "a report without rows" true
    (Test_cli.contains tables
       "== analysis: permissions ==\nprocedures=0  read_preconditions=0  \
        write_preconditions=0\nProc  Array");
  Alcotest.(check string) "dragon report = uhc tables" tables
    (stdout_of (Printf.sprintf "%s report %s" (Test_cli.exe "dragon") file));
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* ------------------------------------------------------------------ *)
(* Differential fuzz: bounds verdicts against the interpreter.

   The generator, unlike test_fuzz's, deliberately produces subscripts
   that can run outside the declared extents, and keeps every loop
   non-empty, unconditional and affine so each statically described access
   point is actually executed.  Then:

   - all verdicts "safe"  => the run never traps (soundness of Safe);
   - any verdict "unsafe" => the run traps (Unsafe regions are entirely
     out of bounds in some dimension, and every described point runs). *)

open QCheck2

type fstmt =
  | Floop of string * int * int * fstmt list
  | Fstore of string * string * int  (* arr, var, offset *)
  | Faccum of string * string * int  (* s = s + arr(var + offset) *)

let sub_str v c =
  if c = 0 then v
  else if c > 0 then Printf.sprintf "%s + %d" v c
  else Printf.sprintf "%s - %d" v (-c)

let rec render_f indent stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Floop (v, lo, hi, body) ->
    Printf.sprintf "%sdo %s = %d, %d\n" pad v lo hi
    ^ String.concat "" (List.map (render_f (indent + 2)) body)
    ^ Printf.sprintf "%send do\n" pad
  | Fstore (arr, v, c) ->
    Printf.sprintf "%s%s(%s) = 1\n" pad arr (sub_str v c)
  | Faccum (arr, v, c) ->
    Printf.sprintf "%ss = s + %s(%s)\n" pad arr (sub_str v c)

let program_f stmts =
  "      program fuzz\n" ^ "      integer a(1:24), b(1:24)\n"
  ^ "      integer s, i, j, k\n" ^ "      s = 0\n"
  ^ String.concat "" (List.map (render_f 6) stmts)
  ^ "      print *, s\n" ^ "      end\n"

let rec gen_fstmt depth vars =
  Gen.(
    let unused =
      List.filter (fun v -> not (List.mem v vars)) [ "i"; "j"; "k" ]
    in
    let loop_gen () =
      let* v = oneofl unused in
      let* lo = int_range 1 4 in
      let* len = int_range 0 12 in
      let hi = min 20 (lo + len) in
      let* body =
        list_size (int_range 1 3) (gen_fstmt (depth - 1) (v :: vars))
      in
      return (Floop (v, lo, hi, body))
    in
    if vars = [] then loop_gen ()
    else
      let leaf =
        let* arr = oneofl [ "a"; "b" ] in
        let* v = oneofl vars in
        let* c = int_range (-4) 8 in
        oneofl [ Fstore (arr, v, c); Faccum (arr, v, c) ]
      in
      if depth = 0 || unused = [] then leaf
      else frequency [ (2, leaf); (1, loop_gen ()) ])

let gen_oob_program =
  Gen.(
    let* top = list_size (int_range 1 3) (gen_fstmt 2 []) in
    return (program_f top))

let prop_bounds_differential =
  Test.make ~name:"bounds verdicts vs interpreter ground truth" ~count:60
    gen_oob_program ~print:(fun s -> s)
    (fun src ->
      let result = Engine.analyze_sources [ ("fuzz.f", src) ] in
      let report = fst (Analyses.Bounds.run (ctx_of result)) in
      let verdicts = List.map verdict report.Analyses.Report.r_rows in
      let trapped =
        match Interp.run result.Ipa.Analyze.r_module with
        | (_ : Interp.outcome) -> false
        | exception Interp.Runtime_error _ -> true
      in
      if List.for_all (String.equal "safe") verdicts then not trapped
      else if List.exists (String.equal "unsafe") verdicts then trapped
      else true)

(* ------------------------------------------------------------------ *)
(* Determinism: report and diagnostics files are byte-identical at any
   --jobs setting, on every corpus. *)

let with_quiet_stdout f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_jobs_invariance () =
  List.iter
    (fun corpus ->
      let run jobs =
        let dir = Test_engine.fresh_dir () in
        let report = Filename.concat dir "report.json" in
        let diagnostics = Filename.concat dir "diag.json" in
        let cfg =
          {
            Pipeline.default with
            corpus = Some corpus;
            analyses = [ "bounds"; "permissions"; "regions" ];
            report = Some report;
            diagnostics = Some diagnostics;
            jobs;
          }
        in
        let r = with_quiet_stdout (fun () -> Pipeline.run cfg) in
        Alcotest.(check int) (corpus ^ " exit code") 0 r.Pipeline.r_code;
        Alcotest.(check int)
          (corpus ^ " report count")
          3
          (List.length r.Pipeline.r_reports);
        (read_file report, read_file diagnostics)
      in
      let rep1, diag1 = run 1 in
      let rep4, diag4 = run 4 in
      Alcotest.(check string) (corpus ^ " report bytes") rep1 rep4;
      Alcotest.(check string) (corpus ^ " diagnostics bytes") diag1 diag4)
    [ "lu"; "matrix"; "fig1"; "stride" ]

let suite =
  [
    Alcotest.test_case "bounds: fig1 all safe" `Quick test_bounds_fig1;
    Alcotest.test_case "bounds: three-valued verdicts" `Quick
      test_bounds_three_valued;
    Alcotest.test_case "permissions: fig1 preconditions" `Quick
      test_permissions_fig1;
    Alcotest.test_case "registry: names and selection" `Quick test_registry;
    Alcotest.test_case "report schema + dragon viewer" `Quick
      test_report_schema;
    QCheck_alcotest.to_alcotest prop_bounds_differential;
    Alcotest.test_case "report/diagnostics jobs-invariant" `Slow
      test_jobs_invariance;
  ]
