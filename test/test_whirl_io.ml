(* WHIRL file (.B analog) round-trips: trees, symbol tables, layout
   addresses, and — the real criterion — identical analysis results. *)

let roundtrip files =
  let m = Whirl.Lower.lower (Lang.Frontend.load ~files) in
  Whirl.Layout.assign m;
  let text = Whirl.Whirl_io.write m in
  match Whirl.Whirl_io.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok m' -> (m, m')

let test_tree_roundtrip () =
  let m, m' = roundtrip [ Corpus.Small.fig1_f ] in
  List.iter2
    (fun pu pu' ->
      Alcotest.(check string) "pu name" pu.Whirl.Ir.pu_name pu'.Whirl.Ir.pu_name;
      Alcotest.(check bool)
        (pu.Whirl.Ir.pu_name ^ " tree identical")
        true
        (Whirl.Wn.equal_tree (Whirl.Ir.body pu) (Whirl.Ir.body pu'));
      Alcotest.(check (list int)) "formals" pu.Whirl.Ir.pu_formals
        pu'.Whirl.Ir.pu_formals)
    m.Whirl.Ir.m_pus m'.Whirl.Ir.m_pus

let test_symtab_roundtrip () =
  let m, m' = roundtrip [ Corpus.Small.fig1_f ] in
  Alcotest.(check int) "global st count"
    (Whirl.Symtab.st_count m.Whirl.Ir.m_global)
    (Whirl.Symtab.st_count m'.Whirl.Ir.m_global);
  Whirl.Symtab.iter_st m.Whirl.Ir.m_global (fun i e ->
      let e' = Whirl.Symtab.st m'.Whirl.Ir.m_global i in
      Alcotest.(check string) "name" e.Whirl.Symtab.st_name e'.Whirl.Symtab.st_name;
      Alcotest.(check int) "ty idx" e.Whirl.Symtab.st_ty e'.Whirl.Symtab.st_ty;
      Alcotest.(check int) "mem loc" e.Whirl.Symtab.st_mem_loc
        e'.Whirl.Symtab.st_mem_loc;
      Alcotest.(check bool) "sclass" true
        (e.Whirl.Symtab.st_sclass = e'.Whirl.Symtab.st_sclass))

let test_analysis_equal_after_reload () =
  let m, m' = roundtrip (Corpus.Nas_lu.files ()) in
  let rows mm =
    (Engine.analyze mm).Ipa.Analyze.r_rows |> List.map Rgnfile.Row.to_fields
  in
  Alcotest.(check bool) "identical .rgn rows from reloaded WHIRL" true
    (rows m = rows m')

let test_interp_equal_after_reload () =
  let m, m' = roundtrip [ Corpus.Small.matrix_c ] in
  let o = Interp.run m and o' = Interp.run m' in
  Alcotest.(check string) "same output" o.Interp.out_text o'.Interp.out_text;
  Alcotest.(check int) "same step count" o.Interp.out_steps o'.Interp.out_steps

let test_floats_bit_exact () =
  let src =
    ( "t.f",
      {|      program t
      double precision x
      x = 0.1d0 + 1.0d-300
      print *, x
      end
|} )
  in
  let m, m' = roundtrip [ src ] in
  let o = Interp.run m and o' = Interp.run m' in
  Alcotest.(check string) "hex-float round trip preserves values"
    o.Interp.out_text o'.Interp.out_text

let test_parse_errors () =
  (match Whirl.Whirl_io.parse "garbage\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Whirl.Whirl_io.parse "whirl 1\nglobal\nendglobal\npu x 0 \"f\" \"f.o\" fortran 1 1 subroutine\nformals\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated pu accepted"

(* A truncated image is malformed input: [parse] answers [Error], never
   an exception ([Whirl_io.load] parses every [uhc FILE.B] input).
   Every byte prefix of fig1; for NAS LU, every prefix through the end
   of the first PU (global table, pu/formals/st/wn lines) and 50 spread
   over the rest. *)
let test_prefixes_never_raise () =
  let image files =
    let m = Whirl.Lower.lower (Lang.Frontend.load ~files) in
    Whirl.Layout.assign m;
    Whirl.Whirl_io.write m
  in
  let check text cut =
    match Whirl.Whirl_io.parse (String.sub text 0 cut) with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "prefix of %d/%d bytes raised %s" cut (String.length text)
        (Printexc.to_string e)
  in
  let fig1 = image [ Corpus.Small.fig1_f ] in
  for cut = 0 to String.length fig1 do
    check fig1 cut
  done;
  let lu = image (Corpus.Nas_lu.files ()) in
  let first_pu_end =
    let rec find i =
      if String.sub lu i 6 = "endpu\n" then i + 6 else find (i + 1)
    in
    find 0
  in
  for cut = 0 to first_pu_end do
    check lu cut
  done;
  let n = String.length lu in
  for k = 0 to 50 do
    check lu (first_pu_end + ((n - first_pu_end) * k / 50))
  done

let suite =
  [

    Alcotest.test_case "tree round trip" `Quick test_tree_roundtrip;
    Alcotest.test_case "symtab round trip" `Quick test_symtab_roundtrip;
    Alcotest.test_case "analysis equal after reload" `Quick
      test_analysis_equal_after_reload;
    Alcotest.test_case "interp equal after reload" `Quick
      test_interp_equal_after_reload;
    Alcotest.test_case "floats bit-exact" `Quick test_floats_bit_exact;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "truncated images never raise" `Quick
      test_prefixes_never_raise;
  ]
