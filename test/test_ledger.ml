(* The run ledger end to end: a cached Pipeline.run appends a record that
   parses and carries the cache/verdict/per-PU sections; turning the
   ledger on or off changes no output byte at any --jobs setting; the
   regress gate's pass/breach logic (including the same-config baseline
   filter); and explain pinning a re-analysis on the edited callee via
   the recorded Merkle keys. *)

let temp_dir () =
  let d = Filename.temp_file "ledger" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let metric run path = Dragon.Ledgerview.metric run.Dragon.Ledgerview.record path

let check_metric name run path expected =
  match metric run path with
  | Some v -> Alcotest.(check (float 0.)) name expected v
  | None -> Alcotest.failf "%s: metric %s missing" name path

(* ------------------------------------------------------------------ *)
(* A cached run writes one parseable record with the advertised shape *)

let test_record_written () =
  let cache = temp_dir () in
  let run () =
    (Pipeline.run
       (Pipeline.make ~corpus:"matrix" ~cache_dir:cache ~analyses:[ "bounds" ]
          ()))
      .Pipeline.r_code
  in
  Alcotest.(check int) "first run exits 0" 0 (run ());
  Alcotest.(check int) "second run exits 0" 0 (run ());
  match Dragon.Ledgerview.load ~cache_dir:cache with
  | Error e -> Alcotest.fail e
  | Ok runs -> (
    match runs with
    | [ r1; r2 ] ->
      Alcotest.(check bool)
        "run ids ascend" true
        (r1.Dragon.Ledgerview.run_id < r2.Dragon.Ledgerview.run_id);
      List.iter
        (fun r ->
          check_metric "schema_version" r "schema_version"
            (float_of_int Obs.Ledger.schema_version);
          check_metric "exit code recorded" r "exit_code" 0.;
          check_metric "no diagnostics" r "diagnostics" 0.;
          check_metric "bounds verdicts recorded" r "verdicts.bounds.safe" 8.;
          check_metric "jobs recorded" r "jobs" 1.;
          (* the whole top-level shape: jobs is the only executor field *)
          match r.Dragon.Ledgerview.record with
          | Obs.Json.Obj members ->
            Alcotest.(check (list string))
              "top-level members"
              [
                "schema_version"; "run_id"; "ts"; "project"; "corpus"; "jobs";
                "analyses"; "config_digest"; "corpus_digest"; "exit_code";
                "wall_s"; "outputs"; "analyzed"; "pus_analyzed"; "phases";
                "cache"; "solver"; "verdicts"; "diagnostics"; "metrics"; "pus";
              ]
              (List.map fst members)
          | _ -> Alcotest.fail "record is not an object")
        [ r1; r2 ];
      (* cold cache, then all hits: the incrementality story in numbers *)
      check_metric "first run misses" r1 "cache.summary_misses" 2.;
      check_metric "first run no hits" r1 "cache.summary_hits" 0.;
      check_metric "second run hits" r2 "cache.summary_hits" 2.;
      check_metric "second run no misses" r2 "cache.summary_misses" 0.;
      (* identical inputs: identical config digests and content keys *)
      let digest r =
        Option.bind
          (Obs.Json.member "config_digest" r.Dragon.Ledgerview.record)
          Obs.Json.to_string
      in
      Alcotest.(check bool) "config digests equal" true (digest r1 = digest r2);
      let keys r =
        List.map
          (fun p ->
            Dragon.Ledgerview.
              (p.pu_name, p.pu_key1, p.pu_key2, p.pu_callees))
          (Dragon.Ledgerview.pus_of r)
      in
      Alcotest.(check bool) "two PU entries" true (List.length (keys r1) = 2);
      Alcotest.(check bool) "stable content keys" true (keys r1 = keys r2)
    | l -> Alcotest.failf "expected 2 ledger records, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Each record's metrics are that run's deltas, not process totals *)

let metrics_counter run name =
  match Obs.Json.member "metrics" run.Dragon.Ledgerview.record with
  | Some (Obs.Json.List entries) ->
    List.find_map
      (fun e ->
        if Option.bind (Obs.Json.member "name" e) Obs.Json.to_string = Some name
        then Option.bind (Obs.Json.member "value" e) Obs.Json.to_int
        else None)
      entries
  | _ -> None

let test_metrics_are_run_deltas () =
  let cache = temp_dir () in
  for _ = 1 to 2 do
    let r =
      Pipeline.run (Pipeline.make ~corpus:"matrix" ~cache_dir:cache ())
    in
    Alcotest.(check int) "run exits 0" 0 r.Pipeline.r_code
  done;
  match Dragon.Ledgerview.load ~cache_dir:cache with
  | Error e -> Alcotest.fail e
  | Ok runs ->
    Alcotest.(check int) "two records" 2 (List.length runs);
    List.iteri
      (fun i r ->
        let what field = Printf.sprintf "record %d: %s" (i + 1) field in
        let cache_field f =
          Option.map int_of_float (metric r ("cache." ^ f))
        in
        Alcotest.(check (option int))
          (what "engine.summary.misses = cache.summary_misses")
          (cache_field "summary_misses")
          (metrics_counter r "engine.summary.misses");
        Alcotest.(check (option int))
          (what "engine.summary.hits = cache.summary_hits")
          (cache_field "summary_hits")
          (metrics_counter r "engine.summary.hits");
        Alcotest.(check (option int))
          (what "engine.runs = 1") (Some 1)
          (metrics_counter r "engine.runs"))
      runs

(* ------------------------------------------------------------------ *)
(* The ledger changes no output byte, at any --jobs setting *)

let project_files dir =
  List.map
    (fun ext -> read_file (Filename.concat dir ("project" ^ ext)))
    [ ".rgn"; ".dgn"; ".cfg" ]

let test_outputs_unchanged () =
  List.iter
    (fun corpus ->
      List.iter
        (fun jobs ->
          let run ?cache_dir ?ledger () =
            let out = temp_dir () in
            let code =
              (Pipeline.run
                 (Pipeline.make ~corpus ~out_dir:out ~jobs ?cache_dir ?ledger
                    ()))
                .Pipeline.r_code
            in
            Alcotest.(check int) (corpus ^ " exits 0") 0 code;
            project_files out
          in
          let plain = run () in
          let ledgered = run ~cache_dir:(temp_dir ()) () in
          let disabled = run ~cache_dir:(temp_dir ()) ~ledger:false () in
          Alcotest.(check bool)
            (Printf.sprintf "%s jobs %d: ledger on is byte-identical" corpus
               jobs)
            true (plain = ledgered);
          Alcotest.(check bool)
            (Printf.sprintf "%s jobs %d: ledger off is byte-identical" corpus
               jobs)
            true (plain = disabled))
        [ 1; 4 ])
    [ "lu"; "matrix"; "fig1"; "stride" ]

(* ------------------------------------------------------------------ *)
(* The regress gate over synthetic records *)

let mk_run id fields =
  let raw = Printf.sprintf "{\"run_id\":\"%s\",%s}" id fields in
  match Obs.Json.parse raw with
  | Ok record -> { Dragon.Ledgerview.run_id = id; record }
  | Error e -> Alcotest.failf "bad synthetic record %s: %s" id e

let fields ~cfg ~queries =
  Printf.sprintf
    "\"config_digest\":\"%s\",\"verdicts\":{\"bounds\":{\"unsafe\":0,\"maybe\":0}},\"diagnostics\":0,\"solver\":{\"queries\":%d}"
    cfg queries

let regress ?baseline ~rules runs =
  match Dragon.Ledgerview.regress ?baseline ~rules runs with
  | Ok (report, breached) -> (report, breached)
  | Error e -> Alcotest.fail e

let test_regress_gate () =
  let r1 = mk_run "a" (fields ~cfg:"X" ~queries:50) in
  let r2 = mk_run "b" (fields ~cfg:"X" ~queries:50) in
  (* identical rerun, deterministic default rules: always passes *)
  let report, breached = regress ~rules:[] [ r1; r2 ] in
  Alcotest.(check bool) "identical rerun passes" false breached;
  Alcotest.(check bool) "report says OK" true (contains report "regress: OK");
  (* an injected breach: a negative threshold demands a decrease, so the
     identical rerun violates it (the verify.sh CI trick) *)
  let rule =
    match Dragon.Ledgerview.parse_rule "solver.queries=-50" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let report, breached = regress ~rules:[ rule ] [ r1; r2 ] in
  Alcotest.(check bool) "injected breach flags" true breached;
  Alcotest.(check bool)
    "report says REGRESSION" true
    (contains report "regress: REGRESSION");
  (* growth above an absolute-zero threshold breaches, growth within a
     generous percentage does not *)
  let grow = mk_run "c" (fields ~cfg:"X" ~queries:60) in
  let zero = { Dragon.Ledgerview.r_path = "solver.queries"; r_pct = 0. } in
  let loose = { Dragon.Ledgerview.r_path = "solver.queries"; r_pct = 50. } in
  Alcotest.(check bool)
    "growth breaches pct 0" true
    (snd (regress ~rules:[ zero ] [ r1; grow ]));
  Alcotest.(check bool)
    "growth within pct 50 passes" false
    (snd (regress ~rules:[ loose ] [ r1; grow ]));
  (* the baseline pool filters to the candidate's config digest: the
     same-config predecessor (50) gates, not the alien one (10) *)
  let alien = mk_run "b2" (fields ~cfg:"Y" ~queries:10) in
  Alcotest.(check bool)
    "same-config baseline chosen" false
    (snd (regress ~rules:[ zero ] [ r1; alien; r2 ]));
  (* malformed thresholds are rejected *)
  List.iter
    (fun s ->
      match Dragon.Ledgerview.parse_rule s with
      | Ok _ -> Alcotest.failf "threshold %S accepted" s
      | Error _ -> ())
    [ "no-equals"; "=5"; "path=" ]

(* ------------------------------------------------------------------ *)
(* explain: editing one callee names that callee, via the Merkle keys *)

let caller_f =
  "      program driver\n\
  \      integer a(1:100)\n\
  \      call work(a)\n\
  \      end\n"

let callee_f n =
  Printf.sprintf
    "      subroutine work(a)\n\
    \      integer a(1:100)\n\
    \      integer i\n\
    \      do i = 1, %d\n\
    \        a(i) = i\n\
    \      end do\n\
    \      end subroutine\n"
    n

let test_explain_names_callee () =
  let src = temp_dir () and cache = temp_dir () in
  let main_path = Filename.concat src "driver.f" in
  let work_path = Filename.concat src "work.f" in
  write_file main_path caller_f;
  write_file work_path (callee_f 50);
  let run () =
    (Pipeline.run
       (Pipeline.make ~paths:[ main_path; work_path ] ~cache_dir:cache ()))
      .Pipeline.r_code
  in
  Alcotest.(check int) "cold run exits 0" 0 (run ());
  Alcotest.(check int) "warm run exits 0" 0 (run ());
  write_file work_path (callee_f 60);
  Alcotest.(check int) "edited run exits 0" 0 (run ());
  match Dragon.Ledgerview.load ~cache_dir:cache with
  | Error e -> Alcotest.fail e
  | Ok runs ->
    (* the caller's own body is untouched: key1 stable, key2 moved, and
       the culprit callee is named with its key2 transition *)
    (match Dragon.Ledgerview.explain ~target:"driver" runs with
    | Error e -> Alcotest.fail e
    | Ok s ->
      Alcotest.(check bool)
        "caller blames a callee" true
        (contains s "a callee changed");
      Alcotest.(check bool)
        "the edited callee is named" true
        (contains s "changed callee: work"));
    (* the callee itself: its own content changed *)
    (match Dragon.Ledgerview.explain ~target:"work.f" runs with
    | Error e -> Alcotest.fail e
    | Ok s ->
      Alcotest.(check bool)
        "callee blames its own edit" true
        (contains s "its own content changed"));
    (* an unknown target errors and lists what is recorded *)
    match Dragon.Ledgerview.explain ~target:"nosuch" runs with
    | Ok _ -> Alcotest.fail "unknown target accepted"
    | Error e -> Alcotest.(check bool) "error lists PUs" true (contains e "driver")

let suite =
  [
    Alcotest.test_case "record written and parses" `Quick test_record_written;
    Alcotest.test_case "outputs unchanged by ledger" `Slow
      test_outputs_unchanged;
    Alcotest.test_case "regress gate logic" `Quick test_regress_gate;
    Alcotest.test_case "explain names the edited callee" `Quick
      test_explain_names_callee;
    Alcotest.test_case "metrics are the run's deltas" `Quick
      test_metrics_are_run_deltas;
  ]
