(* The seeded corpus generator (lib/corpus/gen): same seed means
   byte-identical files, shape invariants hold across a config sweep, and
   the pinned generated corpus produces jobs-invariant reports and
   ledger verdicts. *)

open QCheck2

let count_occurrences hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go acc i =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (acc + 1) (i + nn)
    else go acc (i + 1)
  in
  if nn = 0 then 0 else go 0 0

let contains hay needle = count_occurrences hay needle > 0

(* ------------------------------------------------------------------ *)
(* Seed determinism *)

let test_seed_determinism () =
  let a = Corpus.Gen.(generate default) in
  let b = Corpus.Gen.(generate default) in
  Alcotest.(check bool) "same seed, same bytes" true (a = b);
  let c = Corpus.Gen.(generate { default with g_seed = 43 }) in
  Alcotest.(check bool) "different seed, different bytes" true (a <> c);
  (* the pinned scale workload meets the advertised floors *)
  let std = Corpus.Gen.standard () in
  Alcotest.(check int) "standard seed pinned" 42 std.Corpus.Gen.g_seed;
  Alcotest.(check bool) "standard >= 200 files" true
    (std.Corpus.Gen.g_files >= 200);
  Alcotest.(check bool) "standard >= 2000 PUs" true
    (Corpus.Gen.pu_count std >= 2000)

let test_invalid_configs () =
  let bad cfg =
    match Corpus.Gen.generate cfg with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let d = Corpus.Gen.default in
  Alcotest.(check bool) "no files" true (bad { d with Corpus.Gen.g_files = 0 });
  Alcotest.(check bool) "one PU per file" true
    (bad { d with Corpus.Gen.g_pus_per_file = 1 });
  Alcotest.(check bool) "tiny extents" true
    (bad { d with Corpus.Gen.g_ext_min = 4 });
  Alcotest.(check bool) "inverted extent range" true
    (bad { d with Corpus.Gen.g_ext_min = 20; g_ext_max = 16 });
  Alcotest.(check bool) "zero dag depth" true
    (bad { d with Corpus.Gen.g_dag_depth = 0 })

(* ------------------------------------------------------------------ *)
(* Config sweep: shape invariants under QCheck *)

let gen_config =
  Gen.(
    let* seed = int_range 0 9999 in
    let* files = int_range 1 4 in
    let* pus = int_range 2 5 in
    let* dag = int_range 1 3 in
    let* scc = int_range 0 10 in
    let* nest = int_range 1 3 in
    let* ext_min = int_range 8 16 in
    let* ext_span = int_range 0 16 in
    let* sparsity = int_range 0 10 in
    let* oob = int_range 0 10 in
    let* undeclared = int_range 0 10 in
    return
      {
        Corpus.Gen.g_seed = seed;
        g_files = files;
        g_pus_per_file = pus;
        g_dag_depth = dag;
        g_scc_density = float_of_int scc /. 10.;
        g_loop_depth = nest;
        g_ext_min = ext_min;
        g_ext_max = ext_min + ext_span;
        g_sparsity = float_of_int sparsity /. 10.;
        g_oob = float_of_int oob /. 10.;
        g_undeclared = float_of_int undeclared /. 10.;
      })

let print_config = Corpus.Gen.describe

let prop_shape_invariants =
  Test.make ~name:"config sweep: generated shape invariants" ~count:50
    gen_config ~print:print_config (fun cfg ->
      let files = Corpus.Gen.generate cfg in
      let again = Corpus.Gen.generate cfg in
      (* determinism holds for every config, not just the default *)
      if files <> again then QCheck2.Test.fail_report "not deterministic";
      if List.length files <> cfg.Corpus.Gen.g_files then
        QCheck2.Test.fail_report "file count";
      List.iteri
        (fun k (name, _) ->
          if name <> Printf.sprintf "gen_%03d.f" k then
            QCheck2.Test.fail_report "file naming")
        files;
      let all = String.concat "" (List.map snd files) in
      (* one main plus the advertised number of subroutines *)
      if count_occurrences all "      program main" <> 1 then
        QCheck2.Test.fail_report "main count";
      if not (contains (snd (List.hd files)) "program main") then
        QCheck2.Test.fail_report "main not in file 0";
      if
        count_occurrences all "      subroutine "
        <> Corpus.Gen.pu_count cfg - 1
      then QCheck2.Test.fail_report "subroutine count";
      (* every directive names an index array declared in the same file *)
      List.iter
        (fun (_, src) ->
          let props = Lang.Iprop.scan ~fortran:true src in
          List.iter
            (fun (name, ip) ->
              if Lang.Iprop.is_none ip then
                QCheck2.Test.fail_report "empty directive";
              if not (contains src ("integer " ^ name ^ "(")) then
                QCheck2.Test.fail_report ("undeclared index array " ^ name))
            props)
        files;
      true)

(* sampled end-to-end: every generated program analyzes cleanly and the
   differential harness holds (no proven-safe access faults at runtime,
   every observed fault sits under a maybe/unsafe row) *)
let summary_of (r : Analyses.Report.t) key =
  match List.assoc_opt key r.Analyses.Report.r_summary with
  | Some v -> v
  | None -> Alcotest.failf "summary key %s missing" key

let prop_generated_differential =
  Test.make ~name:"config sweep: differential harness holds" ~count:12
    gen_config ~print:print_config (fun cfg ->
      let cfg = { cfg with Corpus.Gen.g_files = min cfg.Corpus.Gen.g_files 2 } in
      let result = Engine.analyze_sources (Corpus.Gen.generate cfg) in
      let ctx =
        {
          Analyses.Analysis.ctx_module = result.Ipa.Analyze.r_module;
          Analyses.Analysis.ctx_result = result;
        }
      in
      let report = fst (Analyses.Diffcheck.run ctx) in
      summary_of report "ok" = "true")

(* ------------------------------------------------------------------ *)
(* Jobs invariance on the pinned generated corpus *)

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
  let run jobs =
    let dir = Test_engine.fresh_dir () in
    let report = Filename.concat dir "report.json" in
    let cache = Filename.concat dir "cache" in
    let cfg =
      {
        Pipeline.default with
        corpus = Some "gen-small";
        analyses = [ "bounds"; "diffcheck" ];
        report = Some report;
        cache_dir = Some cache;
        jobs;
      }
    in
    let r = with_quiet_stdout (fun () -> Pipeline.run cfg) in
    Alcotest.(check int) "exit code" 0 r.Pipeline.r_code;
    (read_file report, cache)
  in
  let rep1, cache1 = run 1 in
  let rep8, cache8 = run 8 in
  Alcotest.(check string) "report bytes jobs 1 = jobs 8" rep1 rep8;
  (* ledger: the deterministic sections (verdict counts) agree; timing
     fields legitimately differ *)
  let verdicts cache =
    match Dragon.Ledgerview.load ~cache_dir:cache with
    | Error e -> Alcotest.fail e
    | Ok [ run ] ->
      List.map
        (fun k -> (k, Dragon.Ledgerview.metric run.Dragon.Ledgerview.record k))
        [
          "verdicts.bounds.safe";
          "verdicts.bounds.unsafe";
          "verdicts.bounds.maybe";
          "exit_code";
          "diagnostics";
        ]
    | Ok runs -> Alcotest.failf "expected one ledger run, got %d" (List.length runs)
  in
  Alcotest.(check bool) "ledger verdicts jobs 1 = jobs 8" true
    (verdicts cache1 = verdicts cache8)

let suite =
  [
    Alcotest.test_case "seed determinism + pinned floors" `Quick
      test_seed_determinism;
    Alcotest.test_case "degenerate configs rejected" `Quick
      test_invalid_configs;
    QCheck_alcotest.to_alcotest prop_shape_invariants;
    QCheck_alcotest.to_alcotest prop_generated_differential;
    Alcotest.test_case "gen-small jobs-invariant report + ledger" `Slow
      test_jobs_invariance;
  ]
