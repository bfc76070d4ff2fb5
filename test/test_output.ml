(* The output layer against its reference implementations (Oracle): the
   assembled .rgn rows, the .rgn/.dgn/.cfg text, the report JSON and the
   rendered tables must be exactly what the straightforward list-based
   code produces — on the pinned corpora and on adversarial inputs — and
   [Files.save] must leave a file that already holds the bytes alone while
   rewriting every other one to exactly the new bytes. *)

open QCheck2

let corpus_files = function
  | "lu" -> Corpus.Nas_lu.files ()
  | "matrix" -> [ Corpus.Small.matrix_c ]
  | "fig1" -> [ Corpus.Small.fig1_f ]
  | "stride" -> [ Corpus.Small.stride_f ]
  | "gen-small" -> Corpus.Gen.(generate default)
  | other -> Alcotest.failf "unknown corpus %s" other

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the production call sites print a report inside a vertical box *)
let boxed render r =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "@[<v>%a@]@?" render r;
  Buffer.contents b

let check_text what expected actual =
  if not (String.equal expected actual) then
    Alcotest.failf "%s differs from the reference (%d vs %d bytes)" what
      (String.length expected) (String.length actual)

(* ------------------------------------------------------------------ *)
(* Corpora *)

let test_corpus name () =
  let r = Engine.analyze_sources (corpus_files name) in
  let m = r.Ipa.Analyze.r_module in
  Alcotest.(check bool)
    "assembled rows equal the reference row builder" true
    (List.equal Rgnfile.Row.equal (Oracle.rows m r.Ipa.Analyze.r_infos)
       r.Ipa.Analyze.r_rows);
  let rgn_ref = Oracle.write_rgn r.Ipa.Analyze.r_rows in
  let dgn_ref = Oracle.write_dgn r.Ipa.Analyze.r_dgn in
  let cfg_ref = Oracle.write_cfg (Oracle.cfg_blocks r.Ipa.Analyze.r_cfgs) in
  let text = Rgnfile.Files.to_string in
  check_text ".rgn" rgn_ref (text (Rgnfile.Files.rgn r.Ipa.Analyze.r_rows));
  check_text ".dgn" dgn_ref (text (Rgnfile.Files.dgn r.Ipa.Analyze.r_dgn));
  check_text ".cfg" cfg_ref (text (Ipa.Analyze.cfg r.Ipa.Analyze.r_cfgs));
  let ctx =
    { Analyses.Analysis.ctx_module = m; Analyses.Analysis.ctx_result = r }
  in
  let reports =
    List.map fst
      (Analyses.Registry.run_selected
         ~selection:[ "bounds"; "permissions"; "regions" ]
         ctx)
  in
  let json_ref = Oracle.json_of_reports reports in
  check_text "report JSON" json_ref (Analyses.Report.json_of_reports reports);
  List.iter
    (fun (rep : Analyses.Report.t) ->
      check_text
        ("rendered " ^ rep.Analyses.Report.r_analysis)
        (boxed Oracle.render rep)
        (boxed Analyses.Report.render rep))
    reports;
  (* the streamed files: written fresh, then rewritten over themselves *)
  let dir = Test_engine.fresh_dir () in
  Fun.protect
    ~finally:(fun () -> Test_engine.rm_rf dir)
    (fun () ->
      for _ = 1 to 2 do
        ignore (Ipa.Analyze.write_outputs r ~dir ~project:"p");
        Analyses.Report.save ~path:(Filename.concat dir "report.json") reports;
        let file f = read_file (Filename.concat dir f) in
        check_text "saved .rgn" rgn_ref (file "p.rgn");
        check_text "saved .dgn" dgn_ref (file "p.dgn");
        check_text "saved .cfg" cfg_ref (file "p.cfg");
        check_text "saved report" json_ref (file "report.json")
      done)

(* ------------------------------------------------------------------ *)
(* Adversarial records: cells that need quoting or escaping, integers
   over the whole range *)

let gen_int =
  Gen.(
    oneof
      [
        int;
        int_range (-1000) 1000;
        oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 9; 10 ];
      ])

let gen_row =
  Gen.(
    let* cells = list_repeat 10 Test_fuzz.gen_cell in
    let* ints = list_repeat 7 gen_int in
    let* props = oneofl [ "-"; "b"; "bm"; "mi"; "bmi" ] in
    match (cells, ints) with
    | ( [ scope; array; file; mode; lb; ub; stride; data_type; dim_size; mem_loc ],
        [ references; dimensions; element_size; tot_size; size_bytes;
          acc_density; line ] ) ->
      return
        {
          Rgnfile.Row.scope; array; file; mode; references; dimensions; lb; ub;
          stride; element_size; data_type; dim_size; tot_size; size_bytes;
          mem_loc; acc_density; line; props;
        }
    | _ -> assert false)

let prop_rgn_reference =
  Test.make ~name:".rgn writer equals the reference on adversarial rows"
    ~count:300
    Gen.(list_size (int_range 0 6) gen_row)
    ~print:Oracle.write_rgn
    (fun rows ->
      let text = Rgnfile.Files.(to_string (rgn rows)) in
      String.equal text (Oracle.write_rgn rows)
      && Rgnfile.Files.parse_rgn text = Ok rows)

let gen_block =
  Gen.(
    let* proc = Test_fuzz.gen_cell in
    let* id = gen_int in
    let* label = Test_fuzz.gen_cell in
    let* succs = list_size (int_range 0 4) gen_int in
    return
      { Rgnfile.Files.cb_proc = proc; cb_id = id; cb_label = label;
        cb_succs = succs })

let cfg_text blocks =
  let buf = Buffer.create 256 in
  List.iter
    (fun (b : Rgnfile.Files.cfg_block) ->
      Rgnfile.Files.add_cfg_block buf ~proc:b.Rgnfile.Files.cb_proc
        ~id:b.Rgnfile.Files.cb_id ~label:b.Rgnfile.Files.cb_label
        ~succs:b.Rgnfile.Files.cb_succs)
    blocks;
  Buffer.contents buf

let prop_cfg_reference =
  Test.make ~name:".cfg writer equals the reference and round-trips"
    ~count:300
    Gen.(list_size (int_range 0 6) gen_block)
    ~print:Oracle.write_cfg
    (fun blocks ->
      let text = cfg_text blocks in
      String.equal text (Oracle.write_cfg blocks)
      && Rgnfile.Files.parse_cfg text = Ok blocks)

let gen_dgn =
  Gen.(
    let cell = Test_fuzz.gen_cell in
    let triple = triple cell cell gen_int in
    let* sources = list_size (int_range 0 4) (pair cell cell) in
    let* procs = list_size (int_range 0 4) triple in
    let* edges = list_size (int_range 0 4) triple in
    return
      { Rgnfile.Files.dgn_sources = sources; dgn_procs = procs;
        dgn_edges = edges })

let prop_dgn_reference =
  Test.make ~name:".dgn writer equals the reference and round-trips"
    ~count:300 gen_dgn ~print:Oracle.write_dgn (fun d ->
      let text = Rgnfile.Files.(to_string (dgn d)) in
      String.equal text (Oracle.write_dgn d)
      && Rgnfile.Files.parse_dgn text = Ok d)

let prop_report_reference =
  Test.make ~name:"report JSON and table equal the reference" ~count:300
    Gen.(list_size (int_range 0 3) Test_fuzz.gen_report)
    ~print:Oracle.json_of_reports
    (fun reports ->
      String.equal
        (Analyses.Report.json_of_reports reports)
        (Oracle.json_of_reports reports)
      && List.for_all
           (fun r ->
             String.equal (boxed Analyses.Report.render r)
               (boxed Oracle.render r))
           reports)

(* the table arrives in blocks of about a kilobyte: long tables cross
   several block boundaries *)
let test_long_table () =
  let row i =
    [ string_of_int i; String.make (i mod 37) 'x'; "c" ^ string_of_int (i * 7) ]
  in
  let r =
    Analyses.Report.make ~analysis:"long" ~summary:[ ("rows", "500") ]
      ~columns:[ "I"; "Pad"; "Last" ]
      (List.init 500 row)
  in
  check_text "long table" (boxed Oracle.render r)
    (boxed Analyses.Report.render r)

(* ------------------------------------------------------------------ *)
(* Saving: compare first, write only what differs *)

let unchanged = Obs.Metrics.counter "files.unchanged"

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* a producer that hands its text over in small records *)
let text_of s buf ~yield =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      let k = min 97 (n - off) in
      Buffer.add_substring buf s off k;
      yield ();
      go (off + k)
    end
  in
  go 0

(* [save] (or [save_text]) of [contents] over [old] ([None]: no file):
   the file ends holding exactly [contents], and [files.unchanged] moves
   iff the old bytes were already those *)
let check_save ~streamed old contents =
  let dir = Test_engine.fresh_dir () in
  let path = Filename.concat dir "f.txt" in
  Fun.protect
    ~finally:(fun () -> Test_engine.rm_rf dir)
    (fun () ->
      Option.iter (write path) old;
      let u0 = Obs.Metrics.Counter.get unchanged in
      if streamed then Rgnfile.Files.save_text ~path (text_of contents)
      else Rgnfile.Files.save ~path contents;
      String.equal (read_file path) contents
      && Obs.Metrics.Counter.get unchanged - u0
         = if old = Some contents then 1 else 0)

let test_save_identical () =
  let dir = Test_engine.fresh_dir () in
  let path = Filename.concat dir "same.txt" in
  Fun.protect
    ~finally:(fun () -> Test_engine.rm_rf dir)
    (fun () ->
      let contents = String.init 200_000 (fun i -> Char.chr (32 + (i mod 91))) in
      List.iter
        (fun streamed ->
          write path contents;
          Unix.utimes path 1000. 1000.;
          let u0 = Obs.Metrics.Counter.get unchanged in
          if streamed then Rgnfile.Files.save_text ~path (text_of contents)
          else Rgnfile.Files.save ~path contents;
          Alcotest.(check int) "files.unchanged moved" 1
            (Obs.Metrics.Counter.get unchanged - u0);
          Alcotest.(check (float 0.)) "mtime untouched" 1000.
            (Unix.stat path).Unix.st_mtime)
        [ false; true ])

let test_save_rewrites () =
  let base = String.init 150_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let flip s i =
    String.mapi (fun j c -> if j = i then Char.uppercase_ascii c else c) s
  in
  let cases =
    [
      ("missing file", None, base);
      ("shorter destination", Some (String.sub base 0 1000), base);
      ("longer destination", Some base, String.sub base 0 70_000);
      ("same length, first byte", Some base, flip base 0);
      ("same length, middle window", Some base, flip base 100_000);
      ("same length, last byte", Some base, flip base 149_999);
      ( "same length, last byte of an odd length",
        Some (String.sub base 0 149_997),
        flip (String.sub base 0 149_997) 149_996 );
      ("empty contents", Some base, "");
    ]
  in
  List.iter
    (fun (what, old, contents) ->
      List.iter
        (fun streamed ->
          Alcotest.(check bool)
            (Printf.sprintf "%s (%s)" what
               (if streamed then "save_text" else "save"))
            true
            (check_save ~streamed old contents))
        [ false; true ])
    cases

(* a text that hands over the first [n] bytes of [s] and then raises *)
let failing_text s n buf ~yield =
  text_of (String.sub s 0 n) buf ~yield;
  failwith "text failed"

let test_save_failure () =
  let base = String.init 150_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let dir = Test_engine.fresh_dir () in
  let path = Filename.concat dir "f.txt" in
  Fun.protect
    ~finally:(fun () -> Test_engine.rm_rf dir)
    (fun () ->
      let fails old =
        Option.iter (write path) old;
        match Rgnfile.Files.save_text ~path (failing_text base 100_000) with
        | () -> Alcotest.fail "a failing text was saved"
        | exception Failure _ -> ()
      in
      fails None;
      Alcotest.(check bool) "no file where there was none" false
        (Sys.file_exists path);
      fails (Some (String.uppercase_ascii base));
      Alcotest.(check bool) "no partial file over a differing one" false
        (Sys.file_exists path);
      fails (Some base);
      check_text "a file the text agreed with is left as it was" base
        (read_file path))

let gen_save_case =
  Gen.(
    let* old = string_size ~gen:(oneofl [ 'a'; 'b'; '\n' ]) (int_range 0 140_000) in
    let n = String.length old in
    let* kind = int_range 0 4 in
    let* k = int_range 0 (max 0 n) in
    let* extra = string_size ~gen:(oneofl [ 'a'; 'c' ]) (int_range 1 70_000) in
    let contents =
      match kind with
      | 0 -> old
      | 1 -> String.sub old 0 k
      | 2 -> old ^ extra
      | 3 when n > 0 ->
        String.mapi (fun j c -> if j = min k (n - 1) then 'z' else c) old
      | _ -> String.sub old 0 k ^ extra
    in
    let* missing = bool in
    let* streamed = bool in
    return ((if missing then None else Some old), contents, streamed))

let prop_save =
  Test.make ~name:"save leaves exactly the new bytes" ~count:40 gen_save_case
    ~print:(fun (old, contents, streamed) ->
      Printf.sprintf "old %s, new %d bytes, %s"
        (match old with None -> "missing" | Some o -> string_of_int (String.length o))
        (String.length contents)
        (if streamed then "save_text" else "save"))
    (fun (old, contents, streamed) -> check_save ~streamed old contents)

let suite =
  List.map
    (fun c ->
      Alcotest.test_case ("writers match the reference: " ^ c) `Quick
        (test_corpus c))
    [ "lu"; "gen-small"; "matrix"; "fig1"; "stride" ]
  @ [
      QCheck_alcotest.to_alcotest prop_rgn_reference;
      QCheck_alcotest.to_alcotest prop_cfg_reference;
      QCheck_alcotest.to_alcotest prop_dgn_reference;
      QCheck_alcotest.to_alcotest prop_report_reference;
      Alcotest.test_case "long table crosses blocks" `Quick test_long_table;
      Alcotest.test_case "identical destination left unwritten" `Quick
        test_save_identical;
      Alcotest.test_case "differing destination rewritten" `Quick
        test_save_rewrites;
      Alcotest.test_case "failed save leaves no partial file" `Quick
        test_save_failure;
      QCheck_alcotest.to_alcotest prop_save;
    ]
