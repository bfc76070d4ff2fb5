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

(* An edit series on one cache, one PU edited per run: a run that merges
   segments carries the recent runs' entries, not the whole store, so no
   run reads much more than a typical one, and the directory stays
   within [segment_cap + 1] segments. *)
let test_merge_reads_bounded () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let files = ref (corpus_files "gen-small") in
  ignore (cached_run dir !files);
  let cap = Engine_store.segment_cap in
  let reads =
    List.init 12 (fun k ->
        files :=
          List.mapi
            (fun i f ->
              if i <> 3 then f
              else
                match edit_one f with
                | Some f' -> f'
                | None -> Alcotest.failf "%s: no editable line" (fst f))
            !files;
        let m0 = Obs.Metrics.snapshot () in
        ignore (cached_run dir !files);
        let d = Obs.Metrics.diff (Obs.Metrics.snapshot ()) m0 in
        let n = List.length (segments (schema_dir dir)) in
        if n > cap + 1 then
          Alcotest.failf "after edit %d: %d segments, cap %d + 1" (k + 1) n cap;
        Obs.Metrics.value d "store.disk.read_bytes")
  in
  let median =
    let a = Array.of_list reads in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  List.iteri
    (fun k r ->
      if float_of_int r >= 1.5 *. float_of_int median then
        Alcotest.failf "edit %d read %d bytes, median %d (%s)" (k + 1) r median
          (String.concat " " (List.map string_of_int reads)))
    reads

(* ---- re-interning: stored entries name the variables a run computes -- *)

(* every region of a result: each PU's collected accesses, then its
   summary entries *)
let regions (r : Ipa.Analyze.result) =
  List.concat_map
    (fun (name, (info : Ipa.Collect.pu_info)) ->
      List.map (fun a -> a.Ipa.Collect.ac_region) info.Ipa.Collect.p_accesses
      @ List.map
          (fun e -> e.Ipa.Summary.e_region)
          (try List.assoc name r.Ipa.Analyze.r_summaries with Not_found -> []))
    r.Ipa.Analyze.r_infos

let check_regions what want got =
  let want = regions want and got = regions got in
  Alcotest.(check int) (what ^ ": region count") (List.length want)
    (List.length got);
  List.iter2
    (fun a b ->
      if
        not
          (Linear.System.equal a.Regions.Region.sys b.Regions.Region.sys
          && Format.asprintf "%a" Regions.Region.pp a
             = Format.asprintf "%a" Regions.Region.pp b)
      then
        Alcotest.failf "%s: %s <> %s" what
          (Format.asprintf "%a" Regions.Region.pp a)
          (Format.asprintf "%a" Regions.Region.pp b))
    want got

(* a second lowering of the same sources computes the same symbolic
   variables, so it hits every entry the first stored, and the values it
   reads back equal a fresh computation *)
let test_second_lowering () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let files = corpus_files "gen-small" in
  let run m =
    Engine.run (Engine.config ~store:(Engine_store.create ~dir ()) ()) m
  in
  ignore (run (lower files));
  let warm = run (lower files) in
  let st = warm.Engine.e_stats in
  Alcotest.(check int) "all collect hits" st.Engine.Stats.s_pus
    st.Engine.Stats.s_collect_hits;
  Alcotest.(check int) "all summary hits" st.Engine.Stats.s_pus
    st.Engine.Stats.s_summary_hits;
  let fresh = Engine.analyze (lower files) in
  check_regions "second lowering = computed" fresh warm.Engine.e_result;
  check_same_output "second lowering" (render fresh)
    (render warm.Engine.e_result)

(* Two programs of one shape: the local at the same module position and st
   code has the same id in both, under another name.  Analyzed in one
   process, interleaved, each renders its own names. *)
let test_same_id_other_name () =
  let prog local =
    ( "p.f",
      Printf.sprintf
        "      program p\n\
        \      integer a(1:100)\n\
        \      call s(a, 10)\n\
        \      end\n\n\
        \      subroutine s(a, n)\n\
        \      integer a(1:100)\n\
        \      integer n, %s, i\n\
        \      %s = n / 2\n\
        \      do i = %s, n + %s\n\
        \        a(i) = i\n\
        \      end do\n\
        \      end\n"
        local local local local )
  in
  let rgn local =
    let rgn, _, _ = render (Engine.analyze (lower [ prog local ])) in
    rgn
  in
  let k1 = rgn "k" and t1 = rgn "t" in
  let k2 = rgn "k" and t2 = rgn "t" in
  Alcotest.(check string) "k program stable" k1 k2;
  Alcotest.(check string) "t program stable" t1 t2;
  Alcotest.(check string) "t program renders t"
    (String.concat "t" (String.split_on_char 'k' k1))
    t1;
  Alcotest.(check bool) "rows name the local" true
    (Test_cli.contains k1 ",n + k,")

(* ---- fresh uhc processes over one cache directory --------------------- *)

(* One uhc process over [files], written into [dir]/src: the .rgn/.dgn/.cfg
   contents it writes and a counter of its --metrics file; [stdout] gets
   what it printed, without [wrote] lines and uhc's own messages. *)
let uhc_run ~dir ?cache ?(flags = []) ?stdout files =
  let src = Filename.concat dir "src" and out = Filename.concat dir "out" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ src; out ];
  let paths =
    List.map
      (fun (name, contents) ->
        let p = Filename.concat src (Filename.basename name) in
        Out_channel.with_open_bin p (fun oc -> output_string oc contents);
        p)
      files
  in
  let metrics = Filename.concat dir "metrics.json" in
  let cmd =
    String.concat " "
      ([ Test_cli.exe "uhc" ]
      @ List.map Filename.quote paths
      @ [ "-o"; Filename.quote out; "-p"; "p"; "--no-ledger"; "--metrics";
          Filename.quote metrics ]
      @ (match cache with
        | Some c -> [ "--cache-dir"; Filename.quote c ]
        | None -> [])
      @ flags)
  in
  (match Test_cli.run_capture cmd with
  | Unix.WEXITED 0, output ->
    Option.iter
      (fun r ->
        r :=
          String.split_on_char '\n' output
          |> List.filter (fun l ->
                 not
                   (String.starts_with ~prefix:"wrote " l
                   || String.starts_with ~prefix:"uhc: " l))
          |> String.concat "\n")
      stdout
  | _, output -> Alcotest.failf "%s failed:\n%s" cmd output);
  let read f =
    In_channel.with_open_bin (Filename.concat out f) In_channel.input_all
  in
  let counts =
    match
      Result.bind
        (Obs.Json.parse (In_channel.with_open_bin metrics In_channel.input_all))
        (fun doc ->
          match Obs.Json.member "metrics" doc with
          | Some l -> Obs.Metrics.of_json l
          | None -> Error "no metrics member")
    with
    | Ok d -> Obs.Metrics.value d
    | Error e -> Alcotest.failf "%s: %s" metrics e
  in
  ((read "p.rgn", read "p.dgn", read "p.cfg"), counts)

let test_fresh_process_paths () =
  Test_cli.require_binaries ();
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Filename.concat dir "cache" in
  let files = corpus_files "gen-small" in
  let n = List.length files * Corpus.Gen.default.Corpus.Gen.g_pus_per_file in
  let _, cold = uhc_run ~dir ~cache files in
  Alcotest.(check int) "cold: every PU digested once" n
    (cold "engine.digest.computed");
  let _, warm = uhc_run ~dir ~cache files in
  Alcotest.(check int) "warm: every digest carried" 0
    (warm "engine.digest.computed");
  (* a new local in the first subroutine: ids are computed per PU, so no
     other PU's entries move; declared on an existing line, so no
     procedure's location (part of the global table) moves *)
  let shifted =
    match files with
    | (name, src) :: rest ->
      let found = ref false in
      let lines =
        List.map
          (fun l ->
            if (not !found) && String.trim l = "integer d, i" then begin
              found := true;
              l ^ ", zznew"
            end
            else l)
          (String.split_on_char '\n' src)
      in
      if not !found then Alcotest.failf "%s: no local to extend" name;
      (name, String.concat "\n" lines) :: rest
    | [] -> Alcotest.fail "no files"
  in
  let pus_per_file = Corpus.Gen.default.Corpus.Gen.g_pus_per_file in
  let want, _ = uhc_run ~dir shifted in
  let out, edited = uhc_run ~dir ~cache shifted in
  let misses = edited "engine.collect.misses" in
  if misses < 1 || misses > pus_per_file then
    Alcotest.failf
      "declaration edit: %d collect misses, the edited file has %d PUs"
      misses pus_per_file;
  check_same_output "declaration edit" want out;
  let out, warm = uhc_run ~dir ~cache shifted in
  Alcotest.(check int) "warm after the declaration edit: all hits" 0
    (warm "engine.collect.misses");
  check_same_output "warm after the declaration edit" want out;
  (* a transformed PU is never the record the frontend carried a digest
     for: the engine digests every one *)
  List.iter
    (fun flag ->
      ignore (uhc_run ~dir ~cache ~flags:[ flag ] shifted);
      let out, warm = uhc_run ~dir ~cache ~flags:[ flag ] shifted in
      Alcotest.(check int)
        (flag ^ ": every transformed PU digested") n
        (warm "engine.digest.computed");
      let want, _ = uhc_run ~dir ~flags:[ flag ] shifted in
      check_same_output flag want out)
    [ "--wopt"; "--fuse" ]

(* A warm frontend load defers every cached file's bodies; a collection
   that misses asks for them on the pool's domains, and each file is read
   once.  A failed read or decode of the tree entry re-lowers the file,
   with the store's diagnostic, and changes no output. *)
let test_bodies_from_pool () =
  let files = corpus_files "gen-small" in
  let nfiles = List.length files in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  ignore (Frontend_cache.load ~store:(Engine_store.create ~dir ()) files);
  let want = render (Engine.analyze (lower files)) in
  List.iter
    (fun (specs, jobs) ->
      let what = Printf.sprintf "[%s] jobs %d" (String.concat "," specs) jobs in
      let plan =
        match Fault.parse_specs specs with
        | Ok p -> p
        | Error e -> Alcotest.failf "%s: %s" what e
      in
      let store = Engine_store.create ~dir () in
      let m0 = Obs.Metrics.snapshot () in
      let got =
        Fault.with_plan plan (fun () ->
            let fr = Frontend_cache.load ~store files in
            (* no analysis store: every PU's collection misses *)
            Engine.run ~carried:fr.Frontend_cache.fr_carried
              (Engine.config ~jobs ()) fr.Frontend_cache.fr_module)
      in
      let d = Obs.Metrics.diff (Obs.Metrics.snapshot ()) m0 in
      check_same_output what want (render got.Engine.e_result);
      let faulted = plan <> [] in
      Alcotest.(check int) (what ^ ": trees decoded")
        (if faulted then 0 else nfiles)
        (Obs.Metrics.value d "frontend.body.decoded");
      Alcotest.(check int) (what ^ ": files lowered again")
        (if faulted then nfiles else 0)
        (Obs.Metrics.value d "frontend.body.relowered");
      Alcotest.(check (list string)) (what ^ ": one diagnostic per file")
        (if faulted then
           List.init nfiles (fun _ ->
               Fault.site_name (List.hd plan).Fault.sp_site)
         else [])
        (List.map
           (fun (g : Fault.Diag.t) -> g.Fault.Diag.d_site)
           (Engine_store.drain_diags store)))
    [
      ([], 1);
      ([], 4);
      ([ "store.read:1.0:7:fw-" ], 1);
      ([ "store.read:1.0:7:fw-" ], 4);
      ([ "store.marshal:1.0:7:fw-" ], 1);
      ([ "store.marshal:1.0:7:fw-" ], 4);
    ]

(* uhc processes on gen-small: a warm run reads no body it does not
   collect again, and every run that does read bodies equals its no-cache
   run. *)
let test_fresh_process_bodies () =
  Test_cli.require_binaries ();
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Filename.concat dir "cache" in
  let files = corpus_files "gen-small" in
  let nfiles = List.length files in
  let per_file = Corpus.Gen.default.Corpus.Gen.g_pus_per_file in
  ignore (uhc_run ~dir ~cache files);
  let same ?(dir = dir) what ?(flags = []) got_out got_stdout edited =
    let stdout = ref "" in
    let want, _ = uhc_run ~dir ~flags ~stdout edited in
    check_same_output what want got_out;
    Alcotest.(check string) (what ^ ": stdout") !stdout got_stdout
  in
  (* a one-file edit: no tree is read *)
  let edited =
    List.mapi
      (fun i f ->
        if i = 3 then
          match edit_one f with Some f' -> f' | None -> Alcotest.fail "edit"
        else f)
      files
  in
  let stdout = ref "" in
  let out, c = uhc_run ~dir ~cache ~stdout edited in
  Alcotest.(check (list int)) "edit: no tree decoded or lowered again"
    [ 0; 0 ]
    [ c "frontend.body.decoded"; c "frontend.body.relowered" ];
  same "edit" out !stdout edited;
  (* a line inserted in the first file moves its later procedures'
     locations: only that file's PUs miss collection *)
  let inserted =
    match edited with
    | (name, src) :: rest ->
      let found = ref false in
      let lines =
        List.concat_map
          (fun l ->
            if
              (not !found)
              && String.starts_with ~prefix:"      subroutine s0_1(" l
            then begin
              found := true;
              [ l; "      integer zzins" ]
            end
            else [ l ])
          (String.split_on_char '\n' src)
      in
      if not !found then Alcotest.failf "%s: no s0_1" name;
      (name, String.concat "\n" lines) :: rest
    | [] -> Alcotest.fail "no files"
  in
  let out, c = uhc_run ~dir ~cache ~stdout inserted in
  let misses = c "engine.collect.misses" in
  Alcotest.(check bool)
    (Printf.sprintf "line insert: %d collect misses, all in one file" misses)
    true
    (misses > 0 && misses <= per_file);
  Alcotest.(check int) "line insert: no tree decoded" 0
    (c "frontend.body.decoded");
  same "line insert" out !stdout inserted;
  (* the runs that read bodies of a cached module, each file's once *)
  List.iter
    (fun flags ->
      let what = String.concat " " flags in
      let out, c = uhc_run ~dir ~cache ~flags ~stdout inserted in
      let read = c "frontend.body.decoded" in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d trees decoded, at most one per file" what
           read)
        true
        (read > 0 && read <= nfiles && c "frontend.body.relowered" = 0);
      same what ~flags out !stdout inserted)
    [
      [ "--wopt" ];
      [ "--fuse" ];
      [ "--autopar" ];
      [ "--analyses"; "bounds,diffcheck" ];
    ];
  (* the interpreter stops at gen-small's first out-of-bounds access:
     run the programs that finish *)
  List.iter
    (fun corpus ->
      let dir = Filename.concat dir corpus in
      Sys.mkdir dir 0o755;
      let cache = Filename.concat dir "cache" in
      let files = corpus_files corpus in
      ignore (uhc_run ~dir ~cache files);
      let flags = [ "--run" ] in
      let out, c = uhc_run ~dir ~cache ~flags ~stdout files in
      Alcotest.(check int) (corpus ^ " --run: trees decoded")
        (List.length files) (c "frontend.body.decoded");
      same ~dir (corpus ^ " --run") ~flags out !stdout files)
    [ "fig1"; "matrix" ];
  (* faults on the tree entries only: every file is lowered again, with
     the store's diagnostic, at any --jobs; a decode failure quarantines
     the entry, and the next run heals it *)
  List.iter
    (fun (site, jobs) ->
      let flags =
        [ "--analyses"; "bounds,diffcheck"; "--jobs"; string_of_int jobs ]
      in
      let what = Printf.sprintf "%s faults, jobs %d" site jobs in
      let diags = Filename.concat dir "diags.json" in
      let out, c =
        uhc_run ~dir ~cache ~stdout
          ~flags:
            (flags
            @ [ "--fault-spec"; site ^ ":1.0:7:fw-"; "--diagnostics"; diags ])
          inserted
      in
      Alcotest.(check (list int)) (what ^ ": decoded, lowered again")
        [ 0; nfiles ]
        [ c "frontend.body.decoded"; c "frontend.body.relowered" ];
      (match
         Fault.Diag.parse
           (In_channel.with_open_bin diags In_channel.input_all)
       with
      | Ok ds ->
        Alcotest.(check int) (what ^ ": one diagnostic per file") nfiles
          (List.length
             (List.filter
                (fun (g : Fault.Diag.t) -> g.Fault.Diag.d_site = site)
                ds))
      | Error e -> Alcotest.failf "%s: %s" diags e);
      same what ~flags out !stdout inserted;
      (* a quarantined tree entry left with its segment, set aside at
         the end of the run: the next run writes it again *)
      let _, c = uhc_run ~dir ~cache inserted in
      Alcotest.(check int) (what ^ ": next run's body misses")
        (if site = "store.marshal" then nfiles else 0)
        (c "frontend.artifact.body.misses"))
    [
      ("store.read", 1);
      ("store.read", 4);
      ("store.marshal", 1);
      ("store.marshal", 4);
    ]

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
    Alcotest.test_case "merging runs read about as much as the others" `Quick
      test_merge_reads_bounded;
    Alcotest.test_case "second lowering hits every entry" `Quick
      test_second_lowering;
    Alcotest.test_case "same id, other name: own names" `Quick
      test_same_id_other_name;
    Alcotest.test_case "fresh processes: carried digests, declaration edit"
      `Quick test_fresh_process_paths;
    Alcotest.test_case "pool domains read each file's trees once" `Quick
      test_bodies_from_pool;
    Alcotest.test_case "fresh processes: bodies read on demand" `Quick
      test_fresh_process_bodies;
  ]
