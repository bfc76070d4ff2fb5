(* The engine's contract: parallel and cached runs are byte-identical to the
   serial reference path, warm caches hit for every PU, and invalidation
   follows the call graph — a change re-analyzes exactly the changed PU
   (collection) and its transitive callers (summaries). *)

let corpus_files = function
  | "lu" -> Corpus.Nas_lu.files ()
  | "matrix" -> [ Corpus.Small.matrix_c ]
  | "fig1" -> [ Corpus.Small.fig1_f ]
  | "stride" -> [ Corpus.Small.stride_f ]
  | "gen-small" -> Corpus.Gen.generate Corpus.Gen.default
  | other -> Alcotest.failf "unknown corpus %s" other

let lower files = Whirl.Lower.lower (Lang.Frontend.load ~files)

(* the exact .rgn/.dgn/.cfg file contents uhc would write *)
let render (r : Ipa.Analyze.result) =
  ( Rgnfile.Files.(to_string (rgn r.Ipa.Analyze.r_rows)),
    Rgnfile.Files.(to_string (dgn r.Ipa.Analyze.r_dgn)),
    Rgnfile.Files.to_string (Ipa.Analyze.cfg r.Ipa.Analyze.r_cfgs) )

(* a line-preserving edit that changes the IR but not the environment:
   " + 0" after the right-hand side of the file's last plain assignment *)
let edit_one (name, src) =
  let lines = String.split_on_char '\n' src in
  let is_c = Filename.check_suffix name ".c" in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let editable l =
    contains l " = "
    && (not (contains (String.lowercase_ascii l) "parameter"))
    && (not (contains l "#define"))
    && (not (contains l "for ("))
    && (not (contains l "!"))
    && ((not is_c) || String.ends_with ~suffix:";" (String.trim l))
    && (is_c || not (String.ends_with ~suffix:"&" (String.trim l)))
  in
  let last =
    List.fold_left
      (fun (i, found) l -> (i + 1, if editable l then Some i else found))
      (0, None) lines
    |> snd
  in
  match last with
  | None -> None
  | Some k ->
    let edit l =
      let n = ref (String.length l) in
      while !n > 0 && (l.[!n - 1] = ' ' || l.[!n - 1] = '\r') do
        decr n
      done;
      if is_c then String.sub l 0 (!n - 1) ^ " + 0;"
      else String.sub l 0 !n ^ " + 0"
    in
    Some
      ( name,
        String.concat "\n" (List.mapi (fun i l -> if i = k then edit l else l) lines)
      )

let check_same_output name (rgn_a, dgn_a, cfg_a) (rgn_b, dgn_b, cfg_b) =
  Alcotest.(check bool) (name ^ " .rgn byte-identical") true (rgn_a = rgn_b);
  Alcotest.(check bool) (name ^ " .dgn byte-identical") true (dgn_a = dgn_b);
  Alcotest.(check bool) (name ^ " .cfg byte-identical") true (cfg_a = cfg_b)

let test_parallel_identical () =
  List.iter
    (fun corpus ->
      let files = corpus_files corpus in
      let serial = render (Engine.analyze (lower files)) in
      let par =
        Engine.run (Engine.config ~jobs:4 ()) (lower files)
      in
      Alcotest.(check int)
        (corpus ^ " parallel jobs") 4 par.Engine.e_stats.Engine.Stats.s_jobs;
      check_same_output (corpus ^ " parallel") serial
        (render par.Engine.e_result);
      (* warm in-memory cache, fresh lowering: everything re-interned *)
      let store = Engine_store.create () in
      let cfg = Engine.config ~jobs:4 ~store () in
      let _cold = Engine.run cfg (lower files) in
      let warm = Engine.run cfg (lower files) in
      check_same_output (corpus ^ " warm") serial
        (render warm.Engine.e_result))
    [ "lu"; "matrix"; "fig1"; "stride" ]

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "engine_cache_%d_%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d

let test_disk_cache_full_hits () =
  let files = corpus_files "lu" in
  let dir = fresh_dir () in
  let cold =
    Engine.run
      (Engine.config ~jobs:4 ~store:(Engine_store.create ~dir ()) ())
      (lower files)
  in
  let st = cold.Engine.e_stats in
  Alcotest.(check int) "cold collect hits" 0 st.Engine.Stats.s_collect_hits;
  Alcotest.(check int) "cold summary hits" 0 st.Engine.Stats.s_summary_hits;
  (* a fresh store over the same directory simulates a second tool
     invocation: everything must come back from disk *)
  let warm =
    Engine.run
      (Engine.config ~jobs:4 ~store:(Engine_store.create ~dir ()) ())
      (lower files)
  in
  let wt = warm.Engine.e_stats in
  let n = wt.Engine.Stats.s_pus in
  Alcotest.(check bool) "has PUs" true (n > 0);
  Alcotest.(check int) "warm collect hits" n wt.Engine.Stats.s_collect_hits;
  Alcotest.(check int) "warm collect misses" 0 wt.Engine.Stats.s_collect_misses;
  Alcotest.(check int) "warm summary hits" n wt.Engine.Stats.s_summary_hits;
  Alcotest.(check int) "warm summary misses" 0 wt.Engine.Stats.s_summary_misses;
  check_same_output "disk warm" (render cold.Engine.e_result)
    (render warm.Engine.e_result)

(* main calls f and h; f calls g: a chain plus an unrelated leaf *)
let chain_src ~g_bound ~f_bound =
  ( "chain.f",
    Printf.sprintf
      {|      program main
      integer, dimension :: a(1:100)
      call f(a)
      call h(a)
      end

      subroutine f(a)
      integer, dimension :: a(1:100)
      integer i
      do i = 1, %d
        a(i) = i
      end do
      call g(a)
      end subroutine

      subroutine g(a)
      integer, dimension :: a(1:100)
      integer i
      do i = 1, %d
        a(i) = a(i) + 1
      end do
      end subroutine

      subroutine h(a)
      integer, dimension :: a(1:100)
      integer i
      do i = 1, 5
        a(i) = 0
      end do
      end subroutine
|}
      f_bound g_bound )

let run_chain store src =
  Engine.run (Engine.config ~jobs:2 ~store ()) (lower [ src ])

let test_invalidation_callers_only () =
  (* edit g: g recollects; g, f, main re-summarize; h stays cached *)
  let store = Engine_store.create () in
  let _ = run_chain store (chain_src ~g_bound:10 ~f_bound:20) in
  let r2 = run_chain store (chain_src ~g_bound:30 ~f_bound:20) in
  let st = r2.Engine.e_stats in
  Alcotest.(check int) "PUs" 4 st.Engine.Stats.s_pus;
  Alcotest.(check int) "edit g: collect misses" 1
    st.Engine.Stats.s_collect_misses;
  Alcotest.(check int) "edit g: summary misses" 3
    st.Engine.Stats.s_summary_misses;
  Alcotest.(check int) "edit g: summary hits" 1
    st.Engine.Stats.s_summary_hits;
  (* the incremental result equals a from-scratch analysis *)
  let fresh =
    Engine.analyze (lower [ chain_src ~g_bound:30 ~f_bound:20 ])
  in
  check_same_output "edit g" (render fresh) (render r2.Engine.e_result);
  (* edit f: f recollects; f, main re-summarize; g and h stay cached *)
  let store = Engine_store.create () in
  let _ = run_chain store (chain_src ~g_bound:10 ~f_bound:20) in
  let r3 = run_chain store (chain_src ~g_bound:10 ~f_bound:40) in
  let st = r3.Engine.e_stats in
  Alcotest.(check int) "edit f: collect misses" 1
    st.Engine.Stats.s_collect_misses;
  Alcotest.(check int) "edit f: summary misses" 2
    st.Engine.Stats.s_summary_misses;
  Alcotest.(check int) "edit f: summary hits" 2
    st.Engine.Stats.s_summary_hits

let test_unchanged_rerun_all_hits () =
  let store = Engine_store.create () in
  let src = chain_src ~g_bound:10 ~f_bound:20 in
  let _ = run_chain store src in
  let r = run_chain store src in
  let st = r.Engine.e_stats in
  Alcotest.(check int) "collect misses" 0 st.Engine.Stats.s_collect_misses;
  Alcotest.(check int) "summary misses" 0 st.Engine.Stats.s_summary_misses

(* ---- one cache directory, several coordinators ----------------------- *)

let rec files_under dir =
  List.concat_map
    (fun name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then files_under p else [ p ])
    (Array.to_list (Sys.readdir dir))

let check_no_litter where dir =
  List.iter
    (fun p ->
      let base = Filename.basename p in
      if Test_cli.contains base ".tmp." then
        Alcotest.failf "%s: unpublished temp file %s left behind" where p;
      if Test_cli.contains base ".quarantined" then
        Alcotest.failf "%s: quarantined entry %s" where p)
    (files_under dir)

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* ---- pack segments, as the tests find and damage them ---------------- *)

let schema_dir dir = Filename.concat dir (Engine_store.schema ())

let segments sub =
  Sys.readdir sub |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".seg")
  |> List.sort compare
  |> List.map (Filename.concat sub)

(* every entry of every segment under [sub]: (segment, namespace, key,
   payload offset, payload length) *)
let payloads sub =
  List.concat_map
    (fun seg ->
      match Engine_store.segment_index seg with
      | Some es -> List.map (fun (ns, key, off, len) -> (seg, ns, key, off, len)) es
      | None -> Alcotest.failf "segment %s has no readable index" seg)
    (segments sub)

let overwrite path off bytes =
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc off;
  output_string oc bytes;
  close_out oc

let test_publish_exactly_once () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let files = corpus_files "gen-small" in
  let counter name = Obs.Metrics.Counter.get (Obs.Metrics.counter name) in
  let run store = Engine.run (Engine.config ~store ()) (lower files) in
  (* two handles over one directory, both open before either run *)
  let a = Engine_store.create ~dir () in
  let b = Engine_store.create ~dir () in
  let p0 = counter "store.publishes" in
  let cold_a = run a in
  let published = counter "store.publishes" - p0 in
  Alcotest.(check bool) "first run published entries" true (published > 0);
  (* [b] runs cold as well: every read fails (an injected store.read
     fault), as for a coordinator that looked each key up before [a]
     published it.  Its persist pass then finds every file present and
     skips it instead of rewriting. *)
  let p1 = counter "store.publishes" and s1 = counter "store.publish_skips" in
  let cold_b =
    match Fault.parse_specs [ "store.read:1.0:1" ] with
    | Error e -> Alcotest.fail e
    | Ok specs -> Fault.with_plan specs (fun () -> run b)
  in
  let st = cold_b.Engine.e_stats in
  Alcotest.(check int) "second run was cold" 0 st.Engine.Stats.s_summary_hits;
  Alcotest.(check int) "second run skipped every existing entry" published
    (counter "store.publish_skips" - s1);
  Alcotest.(check int) "second run published nothing" 0
    (counter "store.publishes" - p1);
  check_same_output "second cold run" (render cold_a.Engine.e_result)
    (render cold_b.Engine.e_result);
  check_no_litter "shared directory" dir;
  (* a third handle reads everything back *)
  let warm = run (Engine_store.create ~dir ()) in
  let wt = warm.Engine.e_stats in
  Alcotest.(check int) "warm collect hits" wt.Engine.Stats.s_pus
    wt.Engine.Stats.s_collect_hits;
  Alcotest.(check int) "warm summary hits" wt.Engine.Stats.s_pus
    wt.Engine.Stats.s_summary_hits

let drain_and_close ic =
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (Unix.close_process_in ic, Buffer.contents buf)

let test_concurrent_writers () =
  let uhc = Test_cli.exe "uhc" in
  if Sys.file_exists uhc then begin
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let cache = Filename.concat dir "cache" in
    let spawn n =
      let out = Filename.concat dir ("o" ^ string_of_int n) in
      Unix.open_process_in
        (Printf.sprintf "%s --corpus gen-small --cache-dir %s -o %s -p gs 2>&1"
           uhc (Filename.quote cache) (Filename.quote out))
    in
    (* two uhc processes race to publish the same content-addressed
       entries into one cache directory *)
    let p1 = spawn 1 in
    let p2 = spawn 2 in
    let st1, out1 = drain_and_close p1 in
    let st2, out2 = drain_and_close p2 in
    List.iter
      (fun (n, st, out) ->
        if st <> Unix.WEXITED 0 then
          Alcotest.failf "writer %d failed; its output:\n%s" n out)
      [ (1, st1, out1); (2, st2, out2) ];
    List.iter
      (fun f ->
        let read n =
          In_channel.with_open_bin
            (Filename.concat (Filename.concat dir n) f)
            In_channel.input_all
        in
        Alcotest.(check bool)
          (f ^ " identical across concurrent writers")
          true
          (read "o1" = read "o2"))
      [ "gs.rgn"; "gs.dgn"; "gs.cfg" ];
    check_no_litter "racing cache directory" cache
  end

(* ---- one pack segment per producer ----------------------------------- *)

(* one uhc invocation's store traffic: the cached frontend, then the
   engine, through one handle *)
(* a load's frontend artifact counts, from a registry diff around it:
   interface hit/miss, body hit/miss *)
let artifact_counts d =
  List.map
    (fun k -> Obs.Metrics.value d ("frontend.artifact." ^ k))
    [ "interface.hits"; "interface.misses"; "body.hits"; "body.misses" ]

let cached_run dir files =
  let store = Engine_store.create ~dir () in
  let m0 = Obs.Metrics.snapshot () in
  let fr = Frontend_cache.load ~store files in
  let counts = artifact_counts (Obs.Metrics.diff (Obs.Metrics.snapshot ()) m0) in
  (counts, Engine.run (Engine.config ~store ()) fr.Frontend_cache.fr_module)

let test_cold_run_few_files () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let _, cold = cached_run dir (corpus_files "gen-small") in
  Alcotest.(check int) "cold run" 0 cold.Engine.e_stats.Engine.Stats.s_collect_hits;
  let published = files_under (schema_dir dir) in
  if List.length published > 2 then
    Alcotest.failf "a cold run published %d files; at most 2 (one per producer)"
      (List.length published);
  check_no_litter "cold run" dir

let test_segments_bounded () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let files = ref (corpus_files "gen-small") in
  let n_files = List.length !files in
  ignore (cached_run dir !files);
  let cap = Engine_store.segment_cap in
  for k = 1 to cap + 3 do
    (* a one-PU edit of file [k mod n_files], on top of earlier edits *)
    files :=
      List.mapi
        (fun i f ->
          if i <> k mod n_files then f
          else
            match edit_one f with
            | Some f' -> f'
            | None -> Alcotest.failf "%s: no editable line" (fst f))
        !files;
    let _, r = cached_run dir !files in
    Alcotest.(check int)
      (Printf.sprintf "edit %d re-collects one PU" k)
      1 r.Engine.e_stats.Engine.Stats.s_collect_misses;
    let n = List.length (segments (schema_dir dir)) in
    if n > cap + 2 then
      Alcotest.failf "after edit %d: %d segments, cap %d + 2" k n cap
  done;
  check_no_litter "after the edits" dir;
  let counts, warm = cached_run dir !files in
  Alcotest.(check (list int)) "frontend fully warm"
    [ n_files; 0; n_files; 0 ]
    counts;
  let st = warm.Engine.e_stats in
  Alcotest.(check int) "warm collect hits" st.Engine.Stats.s_pus
    st.Engine.Stats.s_collect_hits;
  Alcotest.(check int) "warm summary hits" st.Engine.Stats.s_pus
    st.Engine.Stats.s_summary_hits;
  check_same_output "warm after the edits"
    (render (Engine.analyze (lower !files)))
    (render warm.Engine.e_result)

let suite =
  [
    Alcotest.test_case "parallel and warm byte-identical" `Slow
      test_parallel_identical;
    Alcotest.test_case "disk cache: second invocation all hits" `Slow
      test_disk_cache_full_hits;
    Alcotest.test_case "invalidation: changed PU + transitive callers" `Quick
      test_invalidation_callers_only;
    Alcotest.test_case "unchanged rerun: all hits" `Quick
      test_unchanged_rerun_all_hits;
    Alcotest.test_case "shared tier published exactly once" `Quick
      test_publish_exactly_once;
    Alcotest.test_case "concurrent writers converge, no litter" `Quick
      test_concurrent_writers;
    Alcotest.test_case "cold run publishes O(1) files" `Quick
      test_cold_run_few_files;
    Alcotest.test_case "segment count stays bounded" `Quick
      test_segments_bounded;
  ]
