(* The observability layer's contract: histograms agree with an exact
   reference implementation on percentile rank, traces are well-formed
   (matched, properly nested begin/end pairs with monotone timestamps, and
   the parser rejects anything less), the metrics dump validates against
   its own reader, and — the part the analysis cares about — turning all of
   it on changes no output byte and the deterministic statistics rendering
   is byte-identical at any --jobs setting. *)

let corpus_files = function
  | "lu" -> Corpus.Nas_lu.files ()
  | "matrix" -> [ Corpus.Small.matrix_c ]
  | "fig1" -> [ Corpus.Small.fig1_f ]
  | "stride" -> [ Corpus.Small.stride_f ]
  | "gen-small" -> Corpus.Gen.(generate default)
  | other -> Alcotest.failf "unknown corpus %s" other

let lower files = Whirl.Lower.lower (Lang.Frontend.load ~files)

let render (r : Ipa.Analyze.result) =
  let blocks =
    List.concat_map
      (fun (proc, cfg) ->
        Array.to_list
          (Array.map
             (fun (b : Cfg.block) ->
               {
                 Rgnfile.Files.cb_proc = proc;
                 cb_id = b.Cfg.id;
                 cb_label = b.Cfg.label;
                 cb_succs = b.Cfg.succs;
               })
             cfg.Cfg.blocks))
      r.Ipa.Analyze.r_cfgs
  in
  ( Rgnfile.Files.write_rgn r.Ipa.Analyze.r_rows,
    Rgnfile.Files.write_dgn r.Ipa.Analyze.r_dgn,
    Rgnfile.Files.write_cfg blocks )

(* ------------------------------------------------------------------ *)
(* Histogram percentiles vs an exact reference *)

(* deterministic pseudo-random stream (no Random: keep the test stable) *)
let lcg_stream seed n =
  let state = ref seed in
  List.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod 1_000_000)

let reference_rank_value samples p =
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  List.nth sorted (rank - 1)

let test_hist_percentiles () =
  List.iter
    (fun (name, samples) ->
      let h = Obs.Hist.create () in
      List.iter (Obs.Hist.observe h) samples;
      Alcotest.(check int)
        (name ^ " count") (List.length samples) (Obs.Hist.count h);
      Alcotest.(check int)
        (name ^ " sum")
        (List.fold_left ( + ) 0 (List.map (max 0) samples))
        (Obs.Hist.sum h);
      List.iter
        (fun p ->
          let v_ref = max 0 (reference_rank_value samples p) in
          let lo, hi = Obs.Hist.bounds_of_value v_ref in
          let est = Obs.Hist.percentile h p in
          if not (float_of_int lo <= est && est <= float_of_int hi) then
            Alcotest.failf
              "%s p%.0f: estimate %.1f outside bucket [%d, %d] of reference %d"
              name (100. *. p) est lo hi v_ref)
        [ 0.5; 0.9; 0.95; 0.99; 1.0 ])
    [
      ("uniform", lcg_stream 42 5000);
      ("small", [ 0; 1; 2; 3; 3; 3; 4; 100 ]);
      ("constant", List.init 100 (fun _ -> 777));
      ("wide", List.map (fun v -> v * 4096) (lcg_stream 7 2000));
      ("negative-clamped", [ -5; -1; 0; 2 ]);
    ]

let test_hist_buckets () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.observe h) [ 0; 1; 5; 5; 1000; 1_000_000_000 ];
  let total =
    List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Obs.Hist.nonzero_buckets h)
  in
  Alcotest.(check int) "bucket counts sum to count" (Obs.Hist.count h) total;
  List.iter
    (fun (lo, hi, _) ->
      if hi < lo then Alcotest.failf "bucket [%d, %d] inverted" lo hi)
    (Obs.Hist.nonzero_buckets h);
  (* buckets ascend and partition: each value maps into exactly one *)
  List.iter
    (fun v ->
      let lo, hi = Obs.Hist.bounds_of_value v in
      if not (lo <= v && v <= hi) then
        Alcotest.failf "value %d outside its bucket [%d, %d]" v lo hi)
    [ 0; 1; 2; 3; 4; 7; 8; 100; 12345; 999_999_999; max_int ]

let test_hist_edge_cases () =
  (* empty: every percentile is 0, not an exception *)
  let h = Obs.Hist.create () in
  Alcotest.(check int) "empty count" 0 (Obs.Hist.count h);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.)) "empty percentile" 0. (Obs.Hist.percentile h p))
    [ 0.5; 0.95; 0.99 ];
  (* a single sample: every percentile lands in that sample's bucket *)
  Obs.Hist.observe h 42;
  let lo, hi = Obs.Hist.bounds_of_value 42 in
  List.iter
    (fun p ->
      let est = Obs.Hist.percentile h p in
      if not (float_of_int lo <= est && est <= float_of_int hi) then
        Alcotest.failf "single-sample p%.0f = %.1f outside [%d, %d]"
          (100. *. p) est lo hi)
    [ 0.5; 0.95; 0.99 ];
  (* merging disjoint ranges: counts and sums add, the merged percentiles
     straddle the gap, and neither input is mutated *)
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  List.iter (Obs.Hist.observe a) [ 1; 2; 3 ];
  List.iter (Obs.Hist.observe b) [ 1000; 2000; 3000 ];
  let m = Obs.Hist.merge a b in
  Alcotest.(check int) "merged count" 6 (Obs.Hist.count m);
  Alcotest.(check int) "merged sum" 6006 (Obs.Hist.sum m);
  Alcotest.(check int) "merge leaves a alone" 3 (Obs.Hist.count a);
  Alcotest.(check int) "merge leaves b alone" 3 (Obs.Hist.count b);
  let p50 = Obs.Hist.percentile m 0.5 in
  if p50 > 4. then Alcotest.failf "merged p50 %.1f not in the low range" p50;
  let p99 = Obs.Hist.percentile m 0.99 in
  if p99 < 1000. then Alcotest.failf "merged p99 %.1f not in the high range" p99

(* ------------------------------------------------------------------ *)
(* JSON string escapes: strict RFC 8259 \uXXXX decoding *)

let parse_str raw =
  match Obs.Json.parse (Printf.sprintf "{\"s\":\"%s\"}" raw) with
  | Ok v -> (
    match Option.bind (Obs.Json.member "s" v) Obs.Json.to_string with
    | Some s -> Ok s
    | None -> Error "no string member")
  | Error e -> Error e

let test_json_unicode_escapes () =
  List.iter
    (fun (name, raw, expect) ->
      match parse_str raw with
      | Ok got -> Alcotest.(check string) name expect got
      | Error e -> Alcotest.failf "%s rejected: %s" name e)
    [
      ("ascii", {|\u0041|}, "A");
      ("two-byte", {|\u00e9|}, "\xc3\xa9");
      ("three-byte", {|\u20ac|}, "\xe2\x82\xac");
      ("surrogate pair", {|\ud83d\ude00|}, "\xf0\x9f\x98\x80");
      ("uppercase hex", {|\uD83D\uDE00|}, "\xf0\x9f\x98\x80");
      ("nul", {|\u0000|}, "\000");
      ("simple escapes", {|\b\f\n\r\t\/\\\"|}, "\b\012\n\r\t/\\\"");
      ("embedded", {|a\u00e9b|}, "a\xc3\xa9b");
    ];
  List.iter
    (fun (name, raw) ->
      match parse_str raw with
      | Ok got -> Alcotest.failf "%s accepted as %S" name got
      | Error _ -> ())
    [
      ("truncated hex", {|\u12|});
      ("non-hex digits", {|\uZZZZ|});
      ("lone high surrogate", {|\ud83d|});
      ("high surrogate then text", {|\ud83dAB|});
      ("high surrogate, bad low", {|\ud83dA|});
      ("lone low surrogate", {|\ude00|});
      ("unknown escape", {|\q|});
    ];
  (* whatever the writer escapes, the reader recovers byte for byte *)
  List.iter
    (fun s ->
      match parse_str (Obs.Json.escape s) with
      | Ok got -> Alcotest.(check string) "escape round-trip" s got
      | Error e -> Alcotest.failf "escaped form of %S rejected: %s" s e)
    [
      "plain";
      "quote\"back\\slash";
      "controls\x01\x02\n\t\x7f";
      "utf8 \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";
    ]

(* ------------------------------------------------------------------ *)
(* Ledger store round-trip *)

let test_ledger_roundtrip () =
  let cache_dir = Filename.temp_file "obs_ledger" "" in
  Sys.remove cache_dir;
  Sys.mkdir cache_dir 0o755;
  let id1 = Obs.Ledger.new_run_id () in
  let id2 = Obs.Ledger.new_run_id () in
  Alcotest.(check bool) "run ids ascend" true (id1 < id2);
  let record id n =
    Printf.sprintf "{\"schema_version\":%d,\"run_id\":\"%s\",\"n\":%d}"
      Obs.Ledger.schema_version id n
  in
  (* written newest first: read_all must still return run-id order *)
  ignore (Obs.Ledger.append ~cache_dir ~run_id:id2 (record id2 2));
  ignore (Obs.Ledger.append ~cache_dir ~run_id:id1 (record id1 1));
  (match Obs.Ledger.read_all ~cache_dir with
  | [ (a, va); (b, vb) ] ->
    Alcotest.(check string) "oldest first" id1 a;
    Alcotest.(check string) "newest last" id2 b;
    let n v = Option.bind (Obs.Json.member "n" v) Obs.Json.to_int in
    Alcotest.(check (option int)) "first payload" (Some 1) (n va);
    Alcotest.(check (option int)) "second payload" (Some 2) (n vb)
  | l -> Alcotest.failf "read_all returned %d record(s)" (List.length l));
  Alcotest.(check string)
    "suffixed path" "/x/trace-RUN.json"
    (Obs.Ledger.suffixed_path ~run_id:"RUN" "/x/trace.json");
  Alcotest.(check string)
    "suffixed path without extension" "/x/trace-RUN"
    (Obs.Ledger.suffixed_path ~run_id:"RUN" "/x/trace")

(* ------------------------------------------------------------------ *)
(* Span nesting and trace well-formedness *)

let with_tracing f =
  Obs.Trace.clear ();
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) f

let test_span_nesting () =
  with_tracing (fun () ->
      Obs.Span.with_ ~name:"outer" (fun () ->
          Obs.Span.with_ ~cat:"pu" ~name:"inner-1" (fun () -> ());
          Obs.Span.with_ ~cat:"pu" ~name:"inner-2" (fun () ->
              Obs.Span.with_ ~name:"leaf" (fun () -> ())));
      (* exception safety: the span must close when f raises *)
      (try Obs.Span.with_ ~name:"raises" (fun () -> failwith "boom")
       with Failure _ -> ()));
  let spans =
    match Obs.Trace.parse (Obs.Trace.export ()) with
    | Ok s -> s
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  Alcotest.(check int) "span count" 5 (List.length spans);
  let find name =
    List.find (fun s -> s.Obs.Trace.sp_name = name) spans
  in
  Alcotest.(check int) "outer depth" 0 (find "outer").Obs.Trace.sp_depth;
  Alcotest.(check int) "inner depth" 1 (find "inner-1").Obs.Trace.sp_depth;
  Alcotest.(check int) "leaf depth" 2 (find "leaf").Obs.Trace.sp_depth;
  Alcotest.(check int) "raises depth" 0 (find "raises").Obs.Trace.sp_depth;
  Alcotest.(check string) "category" "pu" (find "inner-2").Obs.Trace.sp_cat;
  (* children nest inside their parent's interval *)
  let outer = find "outer" in
  List.iter
    (fun name ->
      let c = find name in
      let fits =
        c.Obs.Trace.sp_ts_us >= outer.Obs.Trace.sp_ts_us
        && c.Obs.Trace.sp_ts_us +. c.Obs.Trace.sp_dur_us
           <= outer.Obs.Trace.sp_ts_us +. outer.Obs.Trace.sp_dur_us +. 0.0001
      in
      Alcotest.(check bool) (name ^ " inside outer") true fits)
    [ "inner-1"; "inner-2"; "leaf" ]

let test_trace_rejects_malformed () =
  let cases =
    [
      ("bad json", "{\"traceEvents\": [");
      ( "unmatched end",
        {|{"traceEvents": [{"ph":"E","name":"x","ts":1.0,"pid":1,"tid":1}]}|}
      );
      ( "misnested pair",
        {|{"traceEvents": [
            {"ph":"B","name":"a","cat":"t","ts":1.0,"pid":1,"tid":1},
            {"ph":"B","name":"b","cat":"t","ts":2.0,"pid":1,"tid":1},
            {"ph":"E","name":"a","ts":3.0,"pid":1,"tid":1},
            {"ph":"E","name":"b","ts":4.0,"pid":1,"tid":1}]}|} );
      ( "backwards clock",
        {|{"traceEvents": [
            {"ph":"B","name":"a","cat":"t","ts":5.0,"pid":1,"tid":1},
            {"ph":"E","name":"a","ts":3.0,"pid":1,"tid":1}]}|} );
      ( "unknown phase",
        {|{"traceEvents": [{"ph":"Q","name":"x","ts":1.0,"pid":1,"tid":1}]}|}
      );
    ]
  in
  List.iter
    (fun (name, raw) ->
      match Obs.Trace.parse raw with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error _ -> ())
    cases

let test_disabled_records_nothing () =
  Obs.Trace.clear ();
  Obs.Span.with_ ~name:"invisible" (fun () -> ());
  match Obs.Trace.parse (Obs.Trace.export ()) with
  | Ok [] -> ()
  | Ok spans -> Alcotest.failf "%d spans recorded while disabled" (List.length spans)
  | Error e -> Alcotest.failf "empty trace does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_registry () =
  let c = Obs.Metrics.counter "test.obs.counter" in
  let c' = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.Counter.set c 0;
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.add c' 2;
  Alcotest.(check int) "same instrument" 3 (Obs.Metrics.Counter.get c);
  (match Obs.Metrics.histogram "test.obs.counter" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch not rejected");
  (* the dump parses and carries the counter *)
  match Obs.Json.parse (Obs.Metrics.dump_json ()) with
  | Error e -> Alcotest.failf "metrics dump does not parse: %s" e
  | Ok doc ->
    let entries =
      Option.get (Option.bind (Obs.Json.member "metrics" doc) Obs.Json.to_list)
    in
    let mine =
      List.find
        (fun e ->
          Option.bind (Obs.Json.member "name" e) Obs.Json.to_string
          = Some "test.obs.counter")
        entries
    in
    Alcotest.(check (option int))
      "dumped value" (Some 3)
      (Option.bind (Obs.Json.member "value" mine) Obs.Json.to_int)

(* ------------------------------------------------------------------ *)
(* Tracing on vs off: byte-identical analysis outputs *)

let test_outputs_unchanged () =
  List.iter
    (fun corpus ->
      let files = corpus_files corpus in
      let plain =
        render (Engine.run (Engine.config ~jobs:2 ()) (lower files)).Engine.e_result
      in
      Obs.Metrics.set_enabled true;
      let traced =
        with_tracing (fun () ->
            render
              (Engine.run (Engine.config ~jobs:2 ()) (lower files)).Engine.e_result)
      in
      Obs.Metrics.set_enabled false;
      Obs.Trace.clear ();
      let (rgn_a, dgn_a, cfg_a) = plain and (rgn_b, dgn_b, cfg_b) = traced in
      Alcotest.(check bool) (corpus ^ " .rgn byte-identical") true (rgn_a = rgn_b);
      Alcotest.(check bool) (corpus ^ " .dgn byte-identical") true (dgn_a = dgn_b);
      Alcotest.(check bool) (corpus ^ " .cfg byte-identical") true (cfg_a = cfg_b))
    [ "lu"; "matrix"; "fig1"; "stride" ]

(* ------------------------------------------------------------------ *)
(* Deterministic statistics: --jobs must not change the rendering *)

let det_stats jobs files =
  Linear.System.clear_cache ();
  (* the solver block is the run's own registry diff: nothing to reset *)
  let r = Engine.run (Engine.config ~jobs ()) (lower files) in
  Format.asprintf "%a" Engine.Stats.pp_deterministic r.Engine.e_stats

let test_stats_deterministic () =
  List.iter
    (fun corpus ->
      let files = corpus_files corpus in
      let serial = det_stats 1 files in
      let parallel = det_stats 4 files in
      Alcotest.(check string) (corpus ^ " stats-det jobs-invariant") serial
        parallel;
      (* and stable across repetition at the same setting *)
      Alcotest.(check string)
        (corpus ^ " stats-det repeatable") parallel (det_stats 4 files))
    [ "lu"; "matrix"; "gen-small" ]

(* ------------------------------------------------------------------ *)
(* Worker allocation attribution *)

let test_worker_alloc_attributed () =
  (* same analysis, serial vs 4 domains: with worker sinks merged, the
     parallel run's total attributed allocation cannot collapse to a tiny
     fraction of the serial one (it used to, when only the coordinator's
     delta was counted) *)
  let files = corpus_files "lu" in
  let alloc_of jobs =
    let r = Engine.run (Engine.config ~jobs ()) (lower files) in
    List.fold_left
      (fun acc p -> acc +. p.Engine.Stats.ph_alloc)
      0. r.Engine.e_stats.Engine.Stats.s_phases
  in
  (* warm the process-global term interner and packed-row caches first:
     they are never dropped, so whichever measured run goes first would
     otherwise allocate far more than the second regardless of jobs *)
  ignore (alloc_of 1);
  let serial = alloc_of 1 in
  let parallel = alloc_of 4 in
  Alcotest.(check bool)
    (Printf.sprintf "parallel alloc %.0f within 2x of serial %.0f" parallel
       serial)
    true
    (parallel >= serial /. 2. && parallel <= serial *. 2.)

(* ------------------------------------------------------------------ *)
(* Run-scoped diffs and the JSON writer *)

let test_metrics_diff () =
  let c = Obs.Metrics.counter "test.obs.diff.counter" in
  let h = Obs.Metrics.histogram "test.obs.diff.hist" in
  let before = [ 3; 70; 70; 900 ] and during = [ 5; 70; 1_000; 40_000; 40_000 ] in
  Obs.Metrics.Counter.add c 4;
  List.iter (Obs.Hist.observe h) before;
  let s0 = Obs.Metrics.snapshot () in
  Obs.Metrics.Counter.add c 3;
  List.iter (Obs.Hist.observe h) during;
  let d = Obs.Metrics.diff (Obs.Metrics.snapshot ()) s0 in
  Alcotest.(check int) "counter delta" 3
    (Obs.Metrics.value d "test.obs.diff.counter");
  (* the histogram delta is the histogram of the samples in between *)
  let alone = Obs.Hist.create () in
  List.iter (Obs.Hist.observe alone) during;
  match List.assoc_opt "test.obs.diff.hist" d with
  | Some (Obs.Metrics.S_hist hd) ->
    Alcotest.(check int) "hist count delta" (Obs.Hist.count alone) hd.h_count;
    Alcotest.(check int) "hist sum delta" (Obs.Hist.sum alone) hd.h_sum;
    Alcotest.(check (list (triple int int int)))
      "hist buckets delta" (Obs.Hist.nonzero_buckets alone) hd.h_buckets;
    List.iter
      (fun (p, got) ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "p%.0f recomputed" (p *. 100.))
          (Obs.Hist.percentile alone p) got)
      [ (0.5, hd.h_p50); (0.95, hd.h_p95); (0.99, hd.h_p99) ];
    (* the diff serializes like the registry dump and reads back *)
    (match Obs.Json.parse (Obs.Json.render (Obs.Metrics.to_json d)) with
    | Ok v -> Alcotest.(check bool) "diff JSON round-trips" true
                (v = Obs.Metrics.to_json d)
    | Error e -> Alcotest.failf "diff JSON does not parse: %s" e)
  | _ -> Alcotest.fail "histogram missing from the diff"

let test_json_writer () =
  let v =
    Obs.Json.(
      Obj
        [
          ("ints", List [ Num 0.; Num (-7.); Num 1e14; Num 4294967296. ]);
          ("floats", List [ Num 0.1; Num 1.7338e-05; Num 1792254956.373029;
                            Num (-2.5); Num 1e300 ]);
          ("text", Str "quote \" backslash \\ newline \n tab \t \001 é");
          ("flags", List [ Bool true; Bool false; Null ]);
          ("empty", Obj [ ("list", List []); ("obj", Obj []) ]);
        ])
  in
  let s = Obs.Json.render v in
  Alcotest.(check string) "compact, members in order"
    {|{"b":[1,true],"a":"x"}|}
    Obs.Json.(render (Obj [ ("b", List [ Num 1.; Bool true ]); ("a", Str "x") ]));
  (match Obs.Json.parse s with
  | Ok v' -> Alcotest.(check bool) "render then parse is the identity" true (v = v')
  | Error e -> Alcotest.failf "rendered JSON does not parse: %s (%s)" e s);
  Alcotest.(check string) "integers print without a fraction" "[0,-7,1]"
    Obs.Json.(render (List [ Num 0.; Num (-7.); Num 1. ]));
  Alcotest.(check string) "non-finite numbers print as null" "[null,null]"
    Obs.Json.(render (List [ Num Float.nan; Num Float.infinity ]))

let suite =
  [
    Alcotest.test_case "hist percentiles vs reference" `Quick
      test_hist_percentiles;
    Alcotest.test_case "hist buckets partition" `Quick test_hist_buckets;
    Alcotest.test_case "hist edge cases and merge" `Quick test_hist_edge_cases;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escapes;
    Alcotest.test_case "ledger store round-trip" `Quick test_ledger_roundtrip;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "trace rejects malformed" `Quick
      test_trace_rejects_malformed;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "outputs unchanged under tracing" `Slow
      test_outputs_unchanged;
    Alcotest.test_case "stats deterministic across jobs" `Slow
      test_stats_deterministic;
    Alcotest.test_case "worker allocation attributed" `Slow
      test_worker_alloc_attributed;
    Alcotest.test_case "metrics diff is run-scoped" `Quick test_metrics_diff;
    Alcotest.test_case "json writer round-trips" `Quick test_json_writer;
  ]
