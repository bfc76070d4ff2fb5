(* Per-file frontend artifacts: the cached frontend links the module the
   uncached composition builds, byte for byte, whatever the cache state;
   an environment change invalidates every body; corrupt artifacts heal. *)

module SM = Lang.Sema.String_map

let corpus_files = function
  | "gen-small" -> Corpus.Gen.(generate default)
  | c -> Test_engine.corpus_files c

let oracle files = Whirl.Lower.lower (Lang.Frontend.load ~files)

(* maps compared by bindings: their tree shape is not part of the value *)
let program_image (p : Lang.Sema.program) =
  ( List.map
      (fun (n, (pi : Lang.Sema.proc_info)) ->
        ( n,
          pi.Lang.Sema.pi_proc,
          SM.bindings pi.Lang.Sema.pi_symbols,
          pi.Lang.Sema.pi_file,
          pi.Lang.Sema.pi_object,
          pi.Lang.Sema.pi_language ))
      (SM.bindings p.Lang.Sema.prog_procs),
    p.Lang.Sema.prog_order,
    SM.bindings p.Lang.Sema.prog_globals,
    SM.bindings p.Lang.Sema.prog_global_scalars,
    p.Lang.Sema.prog_files,
    p.Lang.Sema.prog_warnings )

let check_same what files ((fr : Frontend_cache.result), _) =
  let want = oracle files in
  let got = fr.Frontend_cache.fr_module in
  Alcotest.(check bool)
    (what ^ ": module byte-identical") true
    (Whirl.Whirl_io.write want = Whirl.Whirl_io.write got);
  Alcotest.(check bool)
    (what ^ ": program equal") true
    (program_image want.Whirl.Ir.m_program
    = program_image got.Whirl.Ir.m_program)

(* one load with its artifact counts (Test_engine.artifact_counts of a
   registry diff around it) *)
let counted f =
  let m0 = Obs.Metrics.snapshot () in
  let fr = f () in
  (fr, Test_engine.artifact_counts (Obs.Metrics.diff (Obs.Metrics.snapshot ()) m0))

let load dir files =
  counted (fun () ->
      Frontend_cache.load ~store:(Engine_store.create ~dir ()) files)

let check_stats what want (_, counts) =
  Alcotest.(check (list int)) (what ^ ": iface hit/miss, body hit/miss") want
    counts

let test_corpora () =
  List.iter
    (fun corpus ->
      let files = corpus_files corpus in
      let n = List.length files in
      let dir = Test_engine.fresh_dir () in
      let cold = load dir files in
      check_same (corpus ^ " cold") files cold;
      check_stats (corpus ^ " cold") [ 0; n; 0; n ] cold;
      let warm = load dir files in
      check_same (corpus ^ " warm") files warm;
      check_stats (corpus ^ " warm") [ n; 0; n; 0 ] warm;
      (* edit the first file with an editable line *)
      let rec edit_first = function
        | [] -> Alcotest.failf "%s: no editable line" corpus
        | f :: rest -> (
          match Test_engine.edit_one f with
          | Some f' -> f' :: rest
          | None -> f :: edit_first rest)
      in
      let edited = edit_first files in
      Alcotest.(check bool) (corpus ^ " edit changes the module") false
        (Whirl.Whirl_io.write (oracle files)
        = Whirl.Whirl_io.write (oracle edited));
      let after = load dir edited in
      check_same (corpus ^ " warm after edit") edited after;
      check_stats (corpus ^ " warm after edit") [ n - 1; 1; n - 1; 1 ] after)
    [ "lu"; "matrix"; "fig1"; "stride"; "gen-small" ]

(* ------------------------------------------------------------------ *)
(* Environment changes *)

let main_f =
  ( "main.f",
    {|      program main
      real a(10)
      common /blk/ a
      call work(5)
      end
|} )

let work_f =
  ( "work.f",
    {|      subroutine work(n)
      integer n
      integer i
      real a(10)
      common /blk/ a
      do i = 1, n
        a(i) = f(i)
      end do
      end
|} )

let func_f ret =
  ( "func.f",
    Printf.sprintf
      {|      %s function f(k)
      integer k
      f = k
      end
|}
      ret )

let test_env_changes () =
  let base = [ main_f; work_f; func_f "real" ] in
  let changes =
    [
      ( "add a COMMON array",
        [
          ( "main.f",
            {|      program main
      real a(10)
      common /blk/ a
      real b(4)
      common /blk2/ b
      call work(5)
      end
|} );
          work_f;
          func_f "real";
        ],
        1 );
      ( "add a procedure",
        [ main_f; work_f; func_f "real";
          ("extra.f", "      subroutine extra\n      end\n") ],
        1 );
      ("change a return type", [ main_f; work_f; func_f "integer" ], 1);
      (* a COMMON array's declaration loc is its last declarer's *)
      ( "shift the last declaring file's lines",
        [ main_f; ("work.f", "\n" ^ snd work_f); func_f "real" ],
        1 );
    ]
  in
  let check_change what files want =
    let dir = Test_engine.fresh_dir () in
    ignore (load dir base);
    let n = List.length files in
    let fr = load dir files in
    check_same what files fr;
    check_stats what want fr;
    check_stats (what ^ ", again") [ n; 0; n; 0 ] (load dir files)
  in
  List.iter
    (fun (what, files, changed) ->
      let n = List.length files in
      check_change what files [ n - changed; changed; 0; n ])
    changes;
  (* the first declarer's lines are not part of the environment: only its
     own body is recomputed *)
  check_change "shift the first declaring file's lines"
    [ ("main.f", "\n" ^ snd main_f); work_f; func_f "real" ]
    [ 2; 1; 2; 1 ]

(* ------------------------------------------------------------------ *)

let test_same_basename () =
  let util body =
    Printf.sprintf "      subroutine %s\n      integer x\n      x = 1\n      end\n"
      body
  in
  let files =
    [ ("a/util.f", util "ua"); ("b/util.f", util "ub"); main_f; work_f;
      func_f "real" ]
  in
  let dir = Test_engine.fresh_dir () in
  check_same "same basename, cold" files (load dir files);
  check_same "same basename, warm" files (load dir files);
  (* same contents under the other path: the path is part of the key *)
  let swapped =
    [ ("a/util.f", util "ub"); ("b/util.f", util "ua"); main_f; work_f;
      func_f "real" ]
  in
  let fr = load dir swapped in
  check_same "same basename, contents swapped" swapped fr;
  check_stats "swapped" [ 3; 2; 0; 5 ] fr

let test_duplicate_procedure () =
  let files =
    [ main_f; work_f; func_f "real";
      ("dup.f", "      subroutine work(n)\n      integer n\n      end\n") ]
  in
  let message f =
    match f () with
    | _ -> Alcotest.fail "duplicate procedure accepted"
    | exception Lang.Diag.Frontend_error d -> Lang.Diag.to_string d
  in
  let want = message (fun () -> ignore (oracle files)) in
  Alcotest.(check bool) "oracle names the duplicate" true
    (String.length want > 0);
  let dir = Test_engine.fresh_dir () in
  Alcotest.(check string) "cold: same message" want
    (message (fun () -> load dir files));
  Alcotest.(check string) "warm: same message" want
    (message (fun () -> load dir files))

let test_corrupt_artifact () =
  let files = [ main_f; work_f; func_f "real" ] in
  let dir = Test_engine.fresh_dir () in
  ignore (load dir files);
  (* damage the second half of one body's payload inside its segment *)
  let path, off, len =
    Test_engine.payloads (Test_engine.schema_dir dir)
    |> List.filter (fun (_, ns, _, _, _) -> ns = "fb")
    |> List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> compare a b)
    |> function
    | (seg, _, _, off, len) :: _ -> (seg, off, len)
    | [] -> Alcotest.fail "no body artifact on disk"
  in
  Test_engine.overwrite path (off + (len / 2))
    (String.make (len - (len / 2)) '\000');
  let q0 = Test_fault.mget "store.quarantined" in
  let fr = load dir files in
  check_same "after corruption" files fr;
  check_stats "after corruption" [ 3; 0; 2; 1 ] fr;
  Alcotest.(check int) "quarantined once" 1
    (Test_fault.mget "store.quarantined" - q0);
  Alcotest.(check bool) "evidence kept aside" true
    (Sys.file_exists (path ^ ".quarantined"));
  check_stats "healed" [ 3; 0; 3; 0 ] (load dir files)

let test_keep_going_never_caches_bad_file () =
  let files = [ main_f; work_f; func_f "real"; ("bad.f", "      subroutine (\n") ] in
  let dir = Test_engine.fresh_dir () in
  let run () =
    counted (fun () ->
        Frontend_cache.load ~store:(Engine_store.create ~dir ())
          ~keep_going:true files)
  in
  let skipped (fr, _) =
    List.map
      (fun (f, d) -> (f, Lang.Diag.to_string d))
      fr.Frontend_cache.fr_skipped
  in
  let cold = run () in
  let warm = run () in
  Alcotest.(check int) "one file skipped" 1 (List.length (skipped cold));
  Alcotest.(check (list (pair string string))) "same diagnostic when warm"
    (skipped cold) (skipped warm);
  check_stats "warm: the bad file misses again" [ 3; 1; 3; 0 ] warm;
  check_same "survivors" [ main_f; work_f; func_f "real" ] warm

let test_no_store () =
  let files = [ main_f; work_f; func_f "real" ] in
  let ((_, counts) as fr) = counted (fun () -> Frontend_cache.load files) in
  check_same "no store" files fr;
  Alcotest.(check (list int)) "counters unchanged without a store"
    [ 0; 0; 0; 0 ] counts

let suite =
  [
    Alcotest.test_case "cold/warm/edited equal the uncached frontend" `Quick
      test_corpora;
    Alcotest.test_case "environment changes invalidate every body" `Quick
      test_env_changes;
    Alcotest.test_case "same basename in two directories" `Quick
      test_same_basename;
    Alcotest.test_case "duplicate procedure fails at link" `Quick
      test_duplicate_procedure;
    Alcotest.test_case "corrupt artifact quarantined and recomputed" `Quick
      test_corrupt_artifact;
    Alcotest.test_case "keep-going never caches an unparsable file" `Quick
      test_keep_going_never_caches_bad_file;
    Alcotest.test_case "no store: plain composition" `Quick test_no_store;
  ]
