(* The fault-tolerance contract: injection is a pure function of
   (seed, site, key); corrupted cache entries are quarantined and healed by
   recomputation with byte-identical output; a poisoned PU degrades to an
   opaque summary without touching its neighbours; exhausted store writes
   leave the run correct but unpersisted; and a zero-rate spec changes
   nothing at all. *)

let mget name = Obs.Metrics.Counter.get (Obs.Metrics.counter name)

let with_specs raw f =
  match Fault.parse_specs raw with
  | Error e -> Alcotest.failf "parse_specs %s: %s" (String.concat " " raw) e
  | Ok specs -> Fault.with_plan specs f

(* ------------------------------------------------------------------ *)
(* spec grammar *)

let test_spec_parsing () =
  (match Fault.parse_specs [ "pool:0.5:42" ] with
  | Ok [ s ] ->
    Alcotest.(check string) "site" "pool" (Fault.site_name s.Fault.sp_site);
    Alcotest.(check (float 0.)) "rate" 0.5 s.Fault.sp_rate;
    Alcotest.(check int) "seed" 42 s.Fault.sp_seed;
    Alcotest.(check (option string)) "only" None s.Fault.sp_only
  | Ok _ -> Alcotest.fail "pool spec expands to one entry"
  | Error e -> Alcotest.fail e);
  (match Fault.parse_specs [ "store.read:1.0:0:lu" ] with
  | Ok [ s ] ->
    Alcotest.(check (option string)) "only" (Some "lu") s.Fault.sp_only
  | _ -> Alcotest.fail "ONLY filter parses");
  (match Fault.parse_specs [ "all:0.1:7" ] with
  | Ok specs ->
    Alcotest.(check int) "all expands to every site"
      (List.length Fault.all_sites) (List.length specs)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Fault.parse_specs [ bad ] with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "bogus:0.5:1"; "pool:2.0:1"; "pool:-0.1:1"; "pool:x:1"; "pool:0.5"; "";
      "solver:1.0:3" ]

(* ------------------------------------------------------------------ *)
(* determinism of the firing decision *)

(* whether (site, key) fires under the bound plan, read through [inject] *)
let fires site ~key =
  match Fault.inject site ~key with
  | () -> false
  | exception Fault.Injected _ -> true

let test_fires_deterministic () =
  let keys = List.init 200 (Printf.sprintf "pu:%d") in
  let draw rate seed =
    with_specs [ Printf.sprintf "pool:%g:%d" rate seed ] @@ fun () ->
    List.map (fun k -> fires Fault.Pool ~key:k) keys
  in
  Alcotest.(check (list bool))
    "same (rate, seed) fires identically" (draw 0.5 42) (draw 0.5 42);
  let count l = List.length (List.filter Fun.id l) in
  let at30 = draw 0.3 42 and at70 = draw 0.7 42 in
  (* the uniform draw per key is seed-determined, so the firing set is
     monotone in the rate — not merely the count *)
  List.iter2
    (fun lo hi ->
      if lo && not hi then
        Alcotest.fail "firing set not monotone in the rate")
    at30 at70;
  Alcotest.(check bool) "rate 0.3 fires less than 0.7" true
    (count at30 < count at70);
  Alcotest.(check int) "rate 0 never fires" 0 (count (draw 0.0 42));
  Alcotest.(check int) "rate 1 always fires" (List.length keys)
    (count (draw 1.0 42));
  Alcotest.(check bool) "different seeds differ" true (draw 0.5 1 <> draw 0.5 2);
  (* the ONLY filter restricts eligibility by substring *)
  with_specs [ "pool:1.0:0:pu:7" ] @@ fun () ->
  Alcotest.(check bool) "only: match fires" true
    (fires Fault.Pool ~key:"pu:7");
  Alcotest.(check bool) "only: non-match spared" false
    (fires Fault.Pool ~key:"pu:8");
  Alcotest.(check bool) "only: other site spared" false
    (fires Fault.Io_read ~key:"pu:7")

(* ------------------------------------------------------------------ *)
(* cache self-healing: corrupted entries are quarantined and recomputed *)

(* garble the tail of the payload at [off], as bit-rot would *)
let corrupt_payload path off len =
  let garbage = "garbage-not-a-cache-entry" in
  let n = min (String.length garbage) (len - (len / 2)) in
  Test_engine.overwrite path (off + (len / 2)) (String.sub garbage 0 n)

(* zero everything after the payload's first two bytes, as a torn write
   would *)
let truncate_payload path off len =
  Test_engine.overwrite path (off + 2) (String.make (max 0 (len - 2)) '\000')

(* entries live under a schema-token subdirectory of the cache dir *)
let store_subdir dir =
  match
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Sys.is_directory (Filename.concat dir f))
  with
  | [ sub ] -> Filename.concat dir sub
  | _ -> Alcotest.failf "expected one schema subdirectory in %s" dir

let test_cache_self_healing () =
  let files = Test_engine.corpus_files "lu" in
  let dir = Test_engine.fresh_dir () in
  let run () =
    Engine.run
      (Engine.config ~jobs:2 ~store:(Engine_store.create ~dir ()) ())
      (Test_engine.lower files)
  in
  let cold = run () in
  let sub = store_subdir dir in
  let entries = Test_engine.payloads sub in
  Alcotest.(check bool) "cold run persisted entries" true (entries <> []);
  (* damage every entry's payload inside its segment *)
  List.iteri
    (fun i (seg, _, _, off, len) ->
      if i mod 2 = 0 then corrupt_payload seg off len
      else truncate_payload seg off len)
    entries;
  let q0 = mget "store.quarantined" in
  let warm = run () in
  Test_engine.check_same_output "healed"
    (Test_engine.render cold.Engine.e_result)
    (Test_engine.render warm.Engine.e_result);
  Alcotest.(check bool) "corrupt entries quarantined" true
    (mget "store.quarantined" - q0 > 0);
  let quarantined =
    Sys.readdir sub |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".quarantined")
  in
  Alcotest.(check bool) "evidence kept aside" true (quarantined <> []);
  (* third run: the healed cache hits for every PU again *)
  let third = run () in
  Alcotest.(check int) "healed cache misses" 0
    third.Engine.e_stats.Engine.Stats.s_collect_misses;
  Alcotest.(check int) "healed tier is fully warm"
    third.Engine.e_stats.Engine.Stats.s_pus
    third.Engine.e_stats.Engine.Stats.s_summary_hits;
  Test_engine.check_same_output "warm healed run"
    (Test_engine.render cold.Engine.e_result)
    (Test_engine.render third.Engine.e_result)

(* ------------------------------------------------------------------ *)
(* per-PU isolation: one poisoned PU of N degrades alone *)

let summaries_of m (r : Engine.result) =
  List.filter_map
    (fun (name, s) ->
      match Whirl.Ir.find_pu m name with
      | None -> None
      | Some pu ->
        Some (name, Format.asprintf "%a" (Ipa.Summary.pp m pu) s))
    r.Engine.e_result.Ipa.Analyze.r_summaries

let test_pu_isolation () =
  let src = Test_engine.chain_src ~g_bound:10 ~f_bound:20 in
  let m_clean = Test_engine.lower [ src ] in
  let clean =
    summaries_of m_clean
      (Engine.run (Engine.config ~jobs:2 ()) m_clean)
  in
  (* poison exactly "main" — the top caller, so no other summary depends on
     the degraded one *)
  with_specs [ "pool:1.0:0:main" ] @@ fun () ->
  let m = Test_engine.lower [ src ] in
  let r = Engine.run (Engine.config ~jobs:2 ~keep_going:true ()) m in
  let faulted = summaries_of m r in
  Alcotest.(check int) "same PU count" (List.length clean)
    (List.length faulted);
  let opaque_main =
    match Whirl.Ir.find_pu m "main" with
    | Some pu ->
      Format.asprintf "%a" (Ipa.Summary.pp m pu) (Ipa.Summary.opaque m pu)
    | None -> Alcotest.fail "main missing"
  in
  List.iter
    (fun (name, printed) ->
      if name = "main" then
        Alcotest.(check string) "main degraded to the opaque summary"
          opaque_main printed
      else
        Alcotest.(check string)
          (name ^ " byte-identical to the clean run")
          (List.assoc name clean) printed)
    faulted;
  Alcotest.(check bool) "isolation produced diagnostics" true
    (r.Engine.e_diags <> []);
  List.iter
    (fun (d : Fault.Diag.t) ->
      Alcotest.(check string) "diagnostic names the poisoned PU" "main"
        d.Fault.Diag.d_pu)
    r.Engine.e_diags;
  (* the diagnostics file reads back through Diag.parse to the same bytes,
     with an adversarial detail and an error beside the recorded ones *)
  let diags =
    Fault.Diag.make ~severity:Fault.Diag.Error ~site:"io" ~pu:"*"
      ~action:"skip-file" "bad \"x.f\"\n\t\001"
    :: r.Engine.e_diags
  in
  let dump = Fault.Diag.dump_json diags in
  match Fault.Diag.parse dump with
  | Ok parsed ->
    Alcotest.(check string) "diagnostics re-encode to the same bytes" dump
      (Fault.Diag.dump_json parsed)
  | Error e -> Alcotest.failf "Diag.parse rejects its own output: %s" e

(* without --keep-going the same fault aborts: isolation is opt-in *)
let test_isolation_opt_in () =
  let src = Test_engine.chain_src ~g_bound:10 ~f_bound:20 in
  with_specs [ "pool:1.0:0:main" ] @@ fun () ->
  let m = Test_engine.lower [ src ] in
  match Engine.run (Engine.config ~jobs:2 ()) m with
  | exception Fault.Injected (Fault.Pool, _) -> ()
  | _ -> Alcotest.fail "fault should escape without keep_going"

(* ------------------------------------------------------------------ *)
(* retry exhaustion: persistent write failure degrades to memory-only *)

let test_write_retry_exhaustion () =
  let files = Test_engine.corpus_files "matrix" in
  let dir = Test_engine.fresh_dir () in
  let w0 = mget "store.write_errors" and t0 = mget "store.retries" in
  let clean =
    Test_engine.render
      (Engine.run (Engine.config ~jobs:1 ()) (Test_engine.lower files))
        .Engine.e_result
  in
  with_specs [ "store.write:1.0:3" ] @@ fun () ->
  let r =
    Engine.run
      (Engine.config ~jobs:1 ~keep_going:true
         ~store:(Engine_store.create ~dir ()) ())
      (Test_engine.lower files)
  in
  Test_engine.check_same_output "unpersisted run still correct" clean
    (Test_engine.render r.Engine.e_result);
  Alcotest.(check bool) "write errors counted" true
    (mget "store.write_errors" - w0 > 0);
  Alcotest.(check bool) "retries attempted" true (mget "store.retries" - t0 > 0);
  (* no segment and no temp file *)
  Alcotest.(check (list string)) "nothing persisted" []
    (Array.to_list (Sys.readdir (store_subdir dir)))

(* ------------------------------------------------------------------ *)
(* a zero-rate spec under --keep-going changes nothing, on every corpus:
   neither the output nor the deterministic statistics (solver work
   included), each run starting from a cold solver memo *)

let test_zero_rate_identity () =
  let det (r : Engine.result) =
    Format.asprintf "%a" Engine.Stats.pp_deterministic r.Engine.e_stats
  in
  List.iter
    (fun corpus ->
      let files = Test_engine.corpus_files corpus in
      Linear.System.clear_cache ();
      let p = Engine.run (Engine.config ~jobs:2 ()) (Test_engine.lower files) in
      let plain = Test_engine.render p.Engine.e_result in
      with_specs [ "all:0.0:1" ] @@ fun () ->
      Linear.System.clear_cache ();
      let r =
        Engine.run
          (Engine.config ~jobs:2 ~keep_going:true ())
          (Test_engine.lower files)
      in
      Test_engine.check_same_output (corpus ^ " zero-rate") plain
        (Test_engine.render r.Engine.e_result);
      Alcotest.(check string)
        (corpus ^ " zero-rate stats-det")
        (det p) (det r);
      Alcotest.(check int)
        (corpus ^ " no diagnostics")
        0
        (List.length r.Engine.e_diags))
    [ "lu"; "matrix"; "fig1"; "stride" ]

(* A [Pipeline.run] of [corpus] (default lu) under [jobs] and the fault
   specs (with keep_going when there are any): its exit code must be 0;
   returns its .rgn/.dgn/.cfg bytes and its diagnostics file.  Callers
   silence stdout around it, once around concurrent calls. *)
let project_files ?(corpus = "lu") ?(fault_specs = []) ~jobs () =
  let dir = Test_engine.fresh_dir () in
  let r =
    Pipeline.run
      {
        Pipeline.default with
        corpus = Some corpus;
        out_dir = Some dir;
        jobs;
        fault_specs;
        keep_going = fault_specs <> [];
        diagnostics = Some (Filename.concat dir "diagnostics.json");
      }
  in
  Alcotest.(check int) "exit code" 0 r.Pipeline.r_code;
  let bytes =
    List.map
      (fun file ->
        In_channel.with_open_bin (Filename.concat dir file)
          In_channel.input_all)
      [ "project.rgn"; "project.dgn"; "project.cfg"; "diagnostics.json" ]
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  bytes

(* [Pipeline.run] binds its fault spec for the length of the run only: a
   faulted run must leave none behind, and the next default run must emit
   exactly what a fresh default run does *)
let test_pipeline_resets_knobs () =
  let run ?fault_specs () =
    Test_analyses.with_quiet_stdout (project_files ?fault_specs ~jobs:1)
  in
  let fresh = run () in
  let d0 = mget "fault.injected.pool" in
  ignore (run ~fault_specs:[ "pool:0.5:3" ] ());
  Alcotest.(check bool) "the knobs were live" true
    (mget "fault.injected.pool" - d0 > 0);
  Alcotest.(check bool) "no plan left bound" true (Fault.current () = []);
  Alcotest.(check (list string)) "next default run = fresh default run" fresh
    (run ())

(* Two runs at once on two domains, one degraded and parallel, one exact:
   each must emit what the same run emits alone, so neither sees the
   other's fault spec, nor loses its own when the other finishes first.
   The degraded run isolates some PUs on the pool, which the files show.
   The pair runs on lu (exact run serial) and on matrix, a C source, with
   both runs parallel so both parse C and submit pool batches at once.
   Every overlapping round runs before the reference runs alone, so the
   first overlap is this test's first use of the pool. *)
let test_concurrent_runs () =
  let degraded corpus () =
    project_files ~corpus ~fault_specs:[ "pool:0.2:5" ] ~jobs:2 ()
  in
  let exact corpus jobs () = project_files ~corpus ~jobs () in
  let cases = [ ("lu", 1); ("matrix", 2) ] in
  Test_analyses.with_quiet_stdout @@ fun () ->
  let rounds =
    List.init 3 (fun _ ->
        List.map
          (fun (corpus, jobs) ->
            let other = Domain.spawn (degraded corpus) in
            let e = exact corpus jobs () in
            (Domain.join other, e))
          cases)
  in
  let alone =
    List.map (fun (corpus, jobs) -> (degraded corpus (), exact corpus jobs ())) cases
  in
  (match alone with
  | (d, e) :: _ ->
    Alcotest.(check bool) "the settings change lu's outputs" true (d <> e)
  | [] -> ());
  List.iteri
    (fun i results ->
      List.iter2
        (fun ((corpus, _), (d_alone, e_alone)) (d, e) ->
          let name what =
            Printf.sprintf "round %d, %s: %s run = its run alone" (i + 1)
              corpus what
          in
          Alcotest.(check (list string)) (name "degraded") d_alone d;
          Alcotest.(check (list string)) (name "exact") e_alone e)
        (List.combine cases alone) results)
    rounds

(* ------------------------------------------------------------------ *)
(* isolation is a function of (spec, PU), not of the pool schedule *)

let test_isolation_parity_jobs () =
  let files = Test_engine.corpus_files "gen-small" in
  with_specs [ "pool:0.3:7" ] @@ fun () ->
  let run jobs =
    Engine.run
      (Engine.config ~jobs ~keep_going:true ())
      (Test_engine.lower files)
  in
  let a = run 1 in
  let b = run 4 in
  Test_engine.check_same_output "pool faults jobs 1 vs 4"
    (Test_engine.render a.Engine.e_result)
    (Test_engine.render b.Engine.e_result);
  let norm (r : Engine.result) =
    List.map
      (fun (d : Fault.Diag.t) ->
        (d.Fault.Diag.d_site, d.Fault.Diag.d_pu, d.Fault.Diag.d_action))
      r.Engine.e_diags
  in
  Alcotest.(check bool) "some PU was isolated" true (norm a <> []);
  Alcotest.(check bool) "identical isolation diagnostics across jobs" true
    (norm a = norm b)

(* ------------------------------------------------------------------ *)
(* a keep-going run must not poison the cache: the callers of an isolated
   PU summarize from its opaque stand-in, and those summaries must not be
   read back by a later fault-free run *)

let test_keep_going_no_poison () =
  let cache = Test_engine.fresh_dir () in
  let run name ?cache_dir ?(fault_specs = []) () =
    let dir = Test_engine.fresh_dir () in
    let report = Filename.concat dir (name ^ ".json") in
    let cfg =
      {
        Pipeline.default with
        corpus = Some "lu";
        out_dir = Some dir;
        cache_dir;
        fault_specs;
        keep_going = fault_specs <> [];
        analyses = [ "bounds"; "permissions" ];
        report = Some report;
      }
    in
    let r = Test_analyses.with_quiet_stdout (fun () -> Pipeline.run cfg) in
    Alcotest.(check int) (name ^ " exit code") 0 r.Pipeline.r_code;
    let read f = In_channel.with_open_bin f In_channel.input_all in
    let bytes = (read report, read (Filename.concat dir "project.rgn")) in
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
    bytes
  in
  let r1, _ =
    run "r1" ~cache_dir:cache ~fault_specs:[ "pool:1.0:0:summarize:exact" ] ()
  in
  let r2, rgn2 = run "r2" ~cache_dir:cache () in
  let r0, rgn0 = run "r0" () in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote cache)));
  Alcotest.(check bool) "the faulted run degraded" true (r1 <> r0);
  Alcotest.(check string) "warm report after a keep-going run = no cache" r0 r2;
  Alcotest.(check string) "warm .rgn after a keep-going run = no cache" rgn0 rgn2

let suite =
  [
    Alcotest.test_case "spec grammar" `Quick test_spec_parsing;
    Alcotest.test_case "firing is pure in (seed, site, key)" `Quick
      test_fires_deterministic;
    Alcotest.test_case "cache corruption self-heals byte-identically" `Slow
      test_cache_self_healing;
    Alcotest.test_case "poisoned PU isolates to an opaque summary" `Quick
      test_pu_isolation;
    Alcotest.test_case "isolation is opt-in (no keep_going: abort)" `Quick
      test_isolation_opt_in;
    Alcotest.test_case "write retry exhaustion: correct but unpersisted"
      `Quick test_write_retry_exhaustion;
    Alcotest.test_case "zero-rate spec is byte-identical on all corpora"
      `Slow test_zero_rate_identity;
    Alcotest.test_case "Pipeline.run resets budget and fault spec" `Slow
      test_pipeline_resets_knobs;
    Alcotest.test_case "concurrent runs keep their own settings" `Slow
      test_concurrent_runs;
    Alcotest.test_case "isolation parity across --jobs" `Quick
      test_isolation_parity_jobs;
    Alcotest.test_case "keep-going run does not poison the cache" `Quick
      test_keep_going_no_poison;
  ]
