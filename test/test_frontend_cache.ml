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
    = program_image got.Whirl.Ir.m_program);
  (* every body reads back through the accessor above (so a cached load
     checks that its tree entry round-trips); the carried values name the
     module's own PUs, in order, and equal what is computed from the body
     now, the digest before and after layout *)
  let buf = Whirl.Whirl_io.scratch () in
  let carried when_ =
    Alcotest.(check bool)
      (what ^ ": carried values " ^ when_) true
      (List.length fr.Frontend_cache.fr_carried
       = List.length got.Whirl.Ir.m_pus
      && List.for_all2
           (fun pu (pu', (c : Engine_store.carried)) ->
             pu == pu'
             && c.Engine_store.ca_digest = Whirl.Whirl_io.pu_digest buf got pu
             && c.Engine_store.ca_sites = Ipa.Callgraph.sites_of got pu
             && c.Engine_store.ca_cfg = Cfg.build pu)
           got.Whirl.Ir.m_pus fr.Frontend_cache.fr_carried)
  in
  carried "before layout";
  Whirl.Layout.assign got;
  carried "after layout"

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

(* damage the second half of the first payload of namespace [ns] inside
   its segment; the path of that segment *)
let corrupt_first dir ns =
  let path, off, len =
    Test_engine.payloads (Test_engine.schema_dir dir)
    |> List.filter (fun (_, ns', _, _, _) -> ns' = ns)
    |> List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> compare a b)
    |> function
    | (seg, _, _, off, len) :: _ -> (seg, off, len)
    | [] -> Alcotest.failf "no %s entry on disk" ns
  in
  Test_engine.overwrite path (off + (len / 2))
    (String.make (len - (len / 2)) '\000');
  path

let test_corrupt_artifact () =
  let files = [ main_f; work_f; func_f "real" ] in
  let dir = Test_engine.fresh_dir () in
  ignore (load dir files);
  let path = corrupt_first dir "fb" in
  let q0 = Test_fault.mget "store.quarantined" in
  let fr = load dir files in
  check_same "after corruption" files fr;
  check_stats "after corruption" [ 3; 0; 2; 1 ] fr;
  Alcotest.(check int) "quarantined once" 1
    (Test_fault.mget "store.quarantined" - q0);
  Alcotest.(check bool) "evidence kept aside" true
    (Sys.file_exists (path ^ ".quarantined"));
  check_stats "healed" [ 3; 0; 3; 0 ] (load dir files)

(* A damaged tree entry is found only when a body is asked for: that file
   is lowered again, and once a publish has set the segment aside, the
   next load writes its trees again. *)
let test_corrupt_trees () =
  let files = [ main_f; work_f; func_f "real" ] in
  let dir = Test_engine.fresh_dir () in
  ignore (load dir files);
  let path = corrupt_first dir "fw" in
  let q0 = Test_fault.mget "store.quarantined" in
  let r0 = Test_fault.mget "frontend.body.relowered" in
  let store = Engine_store.create ~dir () in
  let fr = counted (fun () -> Frontend_cache.load ~store files) in
  check_stats "after corruption: the artifacts hit" [ 3; 0; 3; 0 ] fr;
  check_same "after corruption" files fr;
  Alcotest.(check (list int)) "quarantined and lowered again once" [ 1; 1 ]
    [
      Test_fault.mget "store.quarantined" - q0;
      Test_fault.mget "frontend.body.relowered" - r0;
    ];
  Engine_store.publish store;
  Alcotest.(check bool) "evidence kept aside" true
    (Sys.file_exists (path ^ ".quarantined"));
  let fr = load dir files in
  check_stats "trees gone: a body miss" [ 3; 0; 2; 1 ] fr;
  check_same "trees written again" files fr;
  check_stats "healed" [ 3; 0; 3; 0 ] (load dir files)

(* Replace the payload at [off] of the segment [path] with [bytes] of the
   same length, and rewrite its MD5 in the index and the index's MD5 in
   the trailer: a payload the store's checksum accepts. *)
let reseal path off bytes =
  let seg = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Bytes.blit_string bytes 0 seg off (String.length bytes);
  let size = Bytes.length seg in
  let trailer = size - 32 in
  let index_off = Int64.to_int (Bytes.get_int64_le seg trailer) in
  let rec patch pos =
    if pos >= trailer then Alcotest.fail "payload not in the index"
    else
      let kl = Char.code (Bytes.get seg pos) in
      let entry_off = Int64.to_int (Bytes.get_int64_le seg (pos + 1 + kl)) in
      if entry_off = off then
        Bytes.blit_string (Digest.string bytes) 0 seg (pos + 17 + kl) 16
      else patch (pos + 33 + kl)
  in
  patch index_off;
  Bytes.blit_string
    (Digest.subbytes seg index_off (trailer - index_off))
    0 seg (trailer + 8) 16;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc seg)

(* A tree entry is the tree part of its PUs' content images, and is used
   only if it hashes to the digests the PUs carry: an entry with a valid
   checksum holding another program's trees (one constant changed) is
   quarantined with one diagnostic, and the file is lowered again. *)
let test_trees_checked_against_digests () =
  let files = [ main_f; work_f; func_f "real" ] in
  let other = ("main.f", {|      program main
      real a(10)
      common /blk/ a
      call work(6)
      end
|}) in
  let dir = Test_engine.fresh_dir () in
  ignore (load dir files);
  let image files =
    let m = oracle files in
    let pus =
      List.filter
        (fun pu -> pu.Whirl.Ir.pu_file = "main.f")
        m.Whirl.Ir.m_pus
    in
    snd (Whirl.Whirl_io.encode_trees (Whirl.Whirl_io.scratch ()) m pus)
  in
  let mine = image files and theirs = image (other :: List.tl files) in
  Alcotest.(check int) "same length" (String.length mine) (String.length theirs);
  let path, off =
    Test_engine.payloads (Test_engine.schema_dir dir)
    |> List.find_map (fun (seg, ns, _, off, len) ->
           let bytes =
             In_channel.with_open_bin seg (fun ic ->
                 In_channel.seek ic (Int64.of_int off);
                 really_input_string ic len)
           in
           if ns = "fw" && bytes = mine then Some (seg, off) else None)
    |> function
    | Some p -> p
    | None -> Alcotest.fail "main.f's tree entry is not its image"
  in
  reseal path off theirs;
  let q0 = Test_fault.mget "store.quarantined" in
  let r0 = Test_fault.mget "frontend.body.relowered" in
  let store = Engine_store.create ~dir () in
  let fr = counted (fun () -> Frontend_cache.load ~store files) in
  check_stats "the artifacts hit" [ 3; 0; 3; 0 ] fr;
  check_same "after the swap" files fr;
  Alcotest.(check (list int)) "quarantined and lowered again once" [ 1; 1 ]
    [
      Test_fault.mget "store.quarantined" - q0;
      Test_fault.mget "frontend.body.relowered" - r0;
    ];
  (match Engine_store.drain_diags store with
  | [ d ] ->
    Alcotest.(check string) "a store diagnostic" "store.marshal"
      d.Fault.Diag.d_site;
    Alcotest.(check bool) "naming the digest" true
      (Test_cli.contains d.Fault.Diag.d_detail "does not match its digest")
  | ds -> Alcotest.failf "%d diagnostics" (List.length ds));
  let run m = Test_engine.render (Engine.analyze m) in
  Test_engine.check_same_output "the run" (run (oracle files))
    (run (fst fr).Frontend_cache.fr_module)

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
    Alcotest.test_case "corrupt trees re-lowered, then written again" `Quick
      test_corrupt_trees;
    Alcotest.test_case "trees checked against the carried digests" `Quick
      test_trees_checked_against_digests;
    Alcotest.test_case "keep-going never caches an unparsable file" `Quick
      test_keep_going_never_caches_bad_file;
    Alcotest.test_case "no store: plain composition" `Quick test_no_store;
  ]
