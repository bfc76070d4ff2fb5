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
  | Ok specs ->
    Fault.configure specs;
    Fun.protect ~finally:Fault.clear f

(* ------------------------------------------------------------------ *)
(* spec grammar *)

let test_spec_parsing () =
  (match Fault.parse_spec "pool:0.5:42" with
  | Ok [ s ] ->
    Alcotest.(check string) "site" "pool" (Fault.site_name s.Fault.sp_site);
    Alcotest.(check (float 0.)) "rate" 0.5 s.Fault.sp_rate;
    Alcotest.(check int) "seed" 42 s.Fault.sp_seed;
    Alcotest.(check (option string)) "only" None s.Fault.sp_only
  | Ok _ -> Alcotest.fail "pool spec expands to one entry"
  | Error e -> Alcotest.fail e);
  (match Fault.parse_spec "store.read:1.0:0:lu" with
  | Ok [ s ] ->
    Alcotest.(check (option string)) "only" (Some "lu") s.Fault.sp_only
  | _ -> Alcotest.fail "ONLY filter parses");
  (match Fault.parse_spec "all:0.1:7" with
  | Ok specs ->
    Alcotest.(check int) "all expands to every site"
      (List.length Fault.all_sites) (List.length specs)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Fault.parse_spec bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "bogus:0.5:1"; "pool:2.0:1"; "pool:-0.1:1"; "pool:x:1"; "pool:0.5"; "" ]

(* ------------------------------------------------------------------ *)
(* determinism of the firing decision *)

let test_fires_deterministic () =
  let keys = List.init 200 (Printf.sprintf "pu:%d") in
  let draw rate seed =
    with_specs [ Printf.sprintf "pool:%g:%d" rate seed ] @@ fun () ->
    List.map (fun k -> Fault.fires Fault.Pool ~key:k) keys
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
    (Fault.fires Fault.Pool ~key:"pu:7");
  Alcotest.(check bool) "only: non-match spared" false
    (Fault.fires Fault.Pool ~key:"pu:8");
  Alcotest.(check bool) "only: other site spared" false
    (Fault.fires Fault.Solver ~key:"pu:7")

(* ------------------------------------------------------------------ *)
(* cache self-healing: corrupted entries are quarantined and recomputed *)

let corrupt_file path =
  (* garble the tail so both the seal checksum and (if the header were
     somehow accepted) the Marshal payload are damaged *)
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  close_in ic;
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc (max 0 (len / 2));
  output_string oc "garbage-not-a-cache-entry";
  close_out oc

let truncate_file path =
  let oc = open_out_gen [ Open_wronly; Open_trunc; Open_binary ] 0o644 path in
  output_string oc "UH";
  close_out oc

(* entries live under a schema-token subdirectory of the cache dir *)
let store_subdir dir =
  match
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Sys.is_directory (Filename.concat dir f))
  with
  | [ sub ] -> Filename.concat dir sub
  | _ -> Alcotest.failf "expected one schema subdirectory in %s" dir

let bin_entries dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bin")

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
  let entries = bin_entries sub in
  Alcotest.(check bool) "cold run persisted entries" true (entries <> []);
  List.iteri
    (fun i f ->
      let p = Filename.concat sub f in
      if i mod 2 = 0 then corrupt_file p else truncate_file p)
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
    third.Engine.e_stats.Engine.Stats.s_collect_misses

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
    r.Engine.e_diags

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
  Alcotest.(check (list string)) "nothing persisted" []
    (bin_entries (store_subdir dir))

(* ------------------------------------------------------------------ *)
(* a zero-rate spec under --keep-going changes nothing, on every corpus *)

let test_zero_rate_identity () =
  List.iter
    (fun corpus ->
      let files = Test_engine.corpus_files corpus in
      let plain =
        Test_engine.render
          (Engine.run (Engine.config ~jobs:2 ()) (Test_engine.lower files))
            .Engine.e_result
      in
      with_specs [ "all:0.0:1" ] @@ fun () ->
      let r =
        Engine.run
          (Engine.config ~jobs:2 ~keep_going:true ())
          (Test_engine.lower files)
      in
      Test_engine.check_same_output (corpus ^ " zero-rate") plain
        (Test_engine.render r.Engine.e_result);
      Alcotest.(check int)
        (corpus ^ " no diagnostics")
        0
        (List.length r.Engine.e_diags))
    [ "lu"; "matrix"; "fig1"; "stride" ]

(* ------------------------------------------------------------------ *)
(* the solver budget degrades conservatively and resets cleanly *)

let test_solver_budget () =
  let files = Test_engine.corpus_files "lu" in
  let exact =
    Test_engine.render
      (Engine.run (Engine.config ~jobs:1 ()) (Test_engine.lower files))
        .Engine.e_result
  in
  let d0 = mget "solver.degraded" in
  Linear.System.set_step_budget (Some 1);
  Linear.System.clear_cache ();
  Fun.protect ~finally:(fun () ->
      Linear.System.set_step_budget None;
      Linear.System.clear_cache ())
  @@ fun () ->
  let r = Engine.run (Engine.config ~jobs:1 ()) (Test_engine.lower files) in
  ignore (Test_engine.render r.Engine.e_result);
  Alcotest.(check bool) "budget 1 degrades queries" true
    (mget "solver.degraded" - d0 > 0);
  (* regions may only have grown: every exact row survives into the
     degraded .rgn (the conservative direction of the interval box) *)
  Linear.System.set_step_budget None;
  Linear.System.clear_cache ();
  let again =
    Test_engine.render
      (Engine.run (Engine.config ~jobs:1 ()) (Test_engine.lower files))
        .Engine.e_result
  in
  Test_engine.check_same_output "budget resets cleanly" exact again

(* [Pipeline.run] owns the two process-global solver knobs for the length
   of a run: a budgeted, faulted run must leave neither behind, and the
   next default run must emit exactly what a fresh default run does *)
let test_pipeline_resets_knobs () =
  let run ?solver_budget ?(fault_specs = []) () =
    let dir = Test_engine.fresh_dir () in
    let cfg =
      Pipeline.make ~corpus:"lu" ~out_dir:dir ?solver_budget ~fault_specs
        ~keep_going:(fault_specs <> []) ()
    in
    let r = Test_analyses.with_quiet_stdout (fun () -> Pipeline.run cfg) in
    Alcotest.(check int) "exit code" 0 r.Pipeline.r_code;
    let bytes =
      List.map
        (fun ext ->
          In_channel.with_open_bin
            (Filename.concat dir ("project" ^ ext))
            In_channel.input_all)
        [ ".rgn"; ".dgn"; ".cfg" ]
    in
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
    bytes
  in
  let fresh = run () in
  let d0 = mget "solver.degraded" in
  ignore (run ~solver_budget:1 ~fault_specs:[ "solver:0.5:3" ] ());
  Alcotest.(check bool) "the knobs were live" true
    (mget "solver.degraded" - d0 > 0);
  Alcotest.(check bool) "step budget reset" true
    (Linear.System.get_step_budget () = None);
  Alcotest.(check bool) "fault spec cleared" false (Fault.enabled ());
  Alcotest.(check (list string)) "next default run = fresh default run" fresh
    (run ())

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
    Alcotest.test_case "solver budget degrades and resets" `Slow
      test_solver_budget;
    Alcotest.test_case "Pipeline.run resets budget and fault spec" `Slow
      test_pipeline_resets_knobs;
  ]
