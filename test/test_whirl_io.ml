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


(* ---- content images: the tree entries of the frontend cache ---------- *)

let lowered files = Whirl.Lower.lower (Lang.Frontend.load ~files)

(* every one of the ten fields, the locations' files included *)
let rec same_wn path (a : Whirl.Wn.t) (b : Whirl.Wn.t) =
  let field name ok = if not ok then Alcotest.failf "%s: %s differs" path name in
  field "operator" (a.Whirl.Wn.operator = b.Whirl.Wn.operator);
  field "linenum" (Lang.Loc.equal a.Whirl.Wn.linenum b.Whirl.Wn.linenum);
  field "offset" (a.Whirl.Wn.offset = b.Whirl.Wn.offset);
  field "elem_size" (a.Whirl.Wn.elem_size = b.Whirl.Wn.elem_size);
  field "const_val" (a.Whirl.Wn.const_val = b.Whirl.Wn.const_val);
  field "flt_val"
    (Int64.equal
       (Int64.bits_of_float a.Whirl.Wn.flt_val)
       (Int64.bits_of_float b.Whirl.Wn.flt_val));
  field "str_val" (String.equal a.Whirl.Wn.str_val b.Whirl.Wn.str_val);
  field "st_idx" (a.Whirl.Wn.st_idx = b.Whirl.Wn.st_idx);
  field "res" (a.Whirl.Wn.res = b.Whirl.Wn.res);
  field "kids" (Array.length a.Whirl.Wn.kids = Array.length b.Whirl.Wn.kids);
  Array.iteri
    (fun i k -> same_wn (Printf.sprintf "%s.%d" path i) k b.Whirl.Wn.kids.(i))
    a.Whirl.Wn.kids

(* a module's PUs grouped by source file, in module order: what one tree
   entry holds *)
let by_file (m : Whirl.Ir.module_) =
  List.fold_left
    (fun acc (pu : Whirl.Ir.pu) ->
      match acc with
      | (f, pus) :: rest when String.equal f pu.Whirl.Ir.pu_file ->
        (f, pu :: pus) :: rest
      | _ -> (pu.Whirl.Ir.pu_file, [ pu ]) :: acc)
    [] m.Whirl.Ir.m_pus
  |> List.rev_map (fun (f, pus) -> (f, List.rev pus))

let test_images_decode () =
  let s = Whirl.Whirl_io.scratch () in
  List.iter
    (fun (corpus, files) ->
      let m = lowered files in
      List.iter
        (fun (file, pus) ->
          let ds, image = Whirl.Whirl_io.encode_trees s m pus in
          List.iter2
            (fun pu d ->
              if d <> Whirl.Whirl_io.pu_digest s m pu then
                Alcotest.failf "%s %s: digest differs from pu_digest" corpus
                  pu.Whirl.Ir.pu_name)
            pus ds;
          match
            Whirl.Whirl_io.decode_trees s m (List.combine pus ds) image
          with
          | Error e -> Alcotest.failf "%s %s: %s" corpus file e
          | Ok ws ->
            List.iteri
              (fun i pu ->
                same_wn
                  (Printf.sprintf "%s %s" corpus pu.Whirl.Ir.pu_name)
                  (Whirl.Ir.body pu) ws.(i))
              pus)
        (by_file m))
    [
      ("lu", Corpus.Nas_lu.files ());
      ("gen", Corpus.Gen.(generate (standard ())));
      ("gen-small", Corpus.Gen.(generate default));
      ("matrix", [ Corpus.Small.matrix_c ]);
      ("fig1", [ Corpus.Small.fig1_f ]);
      ("stride", [ Corpus.Small.stride_f ]);
    ]

(* A damaged tree entry is an [Error], never an exception and never a
   tree: every truncation and every flipped byte of small files' images,
   spread positions of a larger one, and a trailing byte. *)
let test_damaged_images () =
  let s = Whirl.Whirl_io.scratch () in
  let check what m pus ds image =
    match Whirl.Whirl_io.decode_trees s m (List.combine pus ds) image with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s decoded" what
    | exception e ->
      Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  List.iter
    (fun (files, every) ->
      let m = lowered files in
      let groups = by_file m in
      (* NAS LU: one of its files, whose PUs call into the others *)
      let groups = if every then groups else [ List.nth groups 1 ] in
      List.iter
        (fun (file, pus) ->
          let ds, image = Whirl.Whirl_io.encode_trees s m pus in
          let n = String.length image in
          let positions =
            if every then List.init n Fun.id
            else List.init 200 (fun k -> k * n / 200)
          in
          List.iter
            (fun i ->
              check
                (Printf.sprintf "%s cut at %d/%d" file i n)
                m pus ds (String.sub image 0 i);
              List.iter
                (fun x ->
                  let b = Bytes.of_string image in
                  Bytes.set b i (Char.chr (Char.code image.[i] lxor x));
                  check
                    (Printf.sprintf "%s byte %d/%d xor %d" file i n x)
                    m pus ds (Bytes.to_string b))
                [ 0x01; 0x80; 0xff ])
            positions;
          check (file ^ " with a trailing byte") m pus ds (image ^ "\000"))
        groups)
    [
      ([ Corpus.Small.fig1_f ], true);
      ([ Corpus.Small.matrix_c ], true);
      ([ Corpus.Small.stride_f ], true);
      (Corpus.Nas_lu.files (), false);
    ]

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
    Alcotest.test_case "tree images decode to the bodies (six corpora)" `Quick
      test_images_decode;
    Alcotest.test_case "damaged tree images are errors" `Quick
      test_damaged_images;
  ]
