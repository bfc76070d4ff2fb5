(* WHIRL file (.B analog) round-trips: trees, symbol tables, layout
   addresses, and — the real criterion — identical analysis results. *)

let lowered files = Whirl.Lower.lower (Lang.Frontend.load ~files)

let roundtrip files =
  let m = lowered files in
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

(* a .B image with its trailing MD5 recomputed: what a decoder sees when
   the damage is not caught by the checksum *)
let seal body = body ^ Digest.string body

(* the image without its trailing MD5 *)
let unsealed text = String.sub text 0 (String.length text - 16)

(* the image bytes before a PU: those of the module cut after the PUs
   before it, less that module's end marker and MD5 *)
let pu_start (m : Whirl.Ir.module_) k =
  let before = List.filteri (fun i _ -> i < k) m.Whirl.Ir.m_pus in
  String.length (Whirl.Whirl_io.write { m with Whirl.Ir.m_pus = before }) - 17

let test_parse_errors () =
  (match Whirl.Whirl_io.parse "garbage\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  let m = lowered [ Corpus.Small.fig1_f ] in
  let text = Whirl.Whirl_io.write m in
  let cut = String.sub text 0 (pu_start m 1 - 1) in
  List.iter
    (fun (what, text) ->
      match Whirl.Whirl_io.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "truncated pu accepted (%s)" what)
    [ ("as cut", cut); ("resealed", seal cut) ]

(* A truncated image is malformed input: [parse] answers [Error], never
   an exception ([Whirl_io.load] parses every [uhc FILE.B] input).
   Every byte prefix of fig1; for NAS LU, every prefix through the end
   of the first PU (magic, global table, the PU's prefix and tree) and 50
   spread over the rest.  Each prefix is tried as cut and resealed, so
   the decoder, not only the checksum, meets every truncation. *)
let test_prefixes_never_raise () =
  let check text cut =
    let prefix = String.sub text 0 cut in
    List.iter
      (fun p ->
        match Whirl.Whirl_io.parse p with
        | Ok _ when String.equal p text -> ()
        | Ok _ ->
          Alcotest.failf "prefix of %d/%d bytes accepted" cut
            (String.length text)
        | Error _ -> ()
        | exception e ->
          Alcotest.failf "prefix of %d/%d bytes raised %s" cut
            (String.length text) (Printexc.to_string e))
      [ prefix; seal prefix ]
  in
  let fig1 = Whirl.Whirl_io.write (lowered [ Corpus.Small.fig1_f ]) in
  for cut = 0 to String.length fig1 do
    check fig1 cut
  done;
  let m = lowered (Corpus.Nas_lu.files ()) in
  let lu = Whirl.Whirl_io.write m in
  let first_pu_end = pu_start m 1 in
  for cut = 0 to first_pu_end do
    check lu cut
  done;
  let n = String.length lu in
  for k = 0 to 50 do
    check lu (first_pu_end + ((n - first_pu_end) * k / 50))
  done

(* ---- content images: the tree entries of the frontend cache ---------- *)

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

let corpora () =
  [
    ("lu", Corpus.Nas_lu.files ());
    ("gen", Corpus.Gen.(generate (standard ())));
    ("gen-small", Corpus.Gen.(generate default));
    ("matrix", [ Corpus.Small.matrix_c ]);
    ("fig1", [ Corpus.Small.fig1_f ]);
    ("stride", [ Corpus.Small.stride_f ]);
  ]

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
    (corpora ())

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

(* ---- .B files: whole-module images ---------------------------------- *)

(* a table's types, in index order *)
let tys st =
  let rec go i =
    match Whirl.Symtab.ty st i with
    | exception Invalid_argument _ -> []
    | k -> k :: go (i + 1)
  in
  go 0

let same_symtab what a b =
  let field name ok = if not ok then Alcotest.failf "%s: %s differs" what name in
  field "types" (tys a = tys b);
  field "symbol count" (Whirl.Symtab.st_count a = Whirl.Symtab.st_count b);
  Whirl.Symtab.iter_st a (fun i e ->
      let e' = Whirl.Symtab.st b i in
      let field name ok =
        field (Printf.sprintf "symbol %d (%s) %s" i e.Whirl.Symtab.st_name name) ok
      in
      field "name" (String.equal e.Whirl.Symtab.st_name e'.Whirl.Symtab.st_name);
      field "type" (e.Whirl.Symtab.st_ty = e'.Whirl.Symtab.st_ty);
      field "storage class" (e.Whirl.Symtab.st_sclass = e'.Whirl.Symtab.st_sclass);
      field "location" (Lang.Loc.equal e.Whirl.Symtab.st_loc e'.Whirl.Symtab.st_loc);
      field "Mem_Loc" (e.Whirl.Symtab.st_mem_loc = e'.Whirl.Symtab.st_mem_loc);
      field "index-array properties"
        (Lang.Iprop.equal e.Whirl.Symtab.st_iprop e'.Whirl.Symtab.st_iprop);
      field "lookup"
        (Whirl.Symtab.find_st a e.Whirl.Symtab.st_name
        = Whirl.Symtab.find_st b e.Whirl.Symtab.st_name))

(* [parse (write m)] is [m] after layout: both symbol tables, every PU
   header field, the procedures' kinds, files and order, and all ten
   fields of every node *)
let test_module_images () =
  List.iter
    (fun (corpus, files) ->
      let m = lowered files in
      Whirl.Layout.assign m;
      match Whirl.Whirl_io.parse (Whirl.Whirl_io.write m) with
      | Error e -> Alcotest.failf "%s: %s" corpus e
      | Ok m' ->
        same_symtab (corpus ^ " global") m.Whirl.Ir.m_global
          m'.Whirl.Ir.m_global;
        Alcotest.(check int) (corpus ^ " PU count")
          (List.length m.Whirl.Ir.m_pus)
          (List.length m'.Whirl.Ir.m_pus);
        List.iter2
          (fun (pu : Whirl.Ir.pu) (pu' : Whirl.Ir.pu) ->
            let what = corpus ^ " " ^ pu.Whirl.Ir.pu_name in
            let field name ok =
              if not ok then Alcotest.failf "%s: %s differs" what name
            in
            field "name" (String.equal pu.Whirl.Ir.pu_name pu'.Whirl.Ir.pu_name);
            field "entry symbol" (pu.Whirl.Ir.pu_st = pu'.Whirl.Ir.pu_st);
            field "formals" (pu.Whirl.Ir.pu_formals = pu'.Whirl.Ir.pu_formals);
            field "location" (Lang.Loc.equal pu.Whirl.Ir.pu_loc pu'.Whirl.Ir.pu_loc);
            field "file" (String.equal pu.Whirl.Ir.pu_file pu'.Whirl.Ir.pu_file);
            field "object"
              (String.equal pu.Whirl.Ir.pu_object pu'.Whirl.Ir.pu_object);
            field "language" (pu.Whirl.Ir.pu_lang = pu'.Whirl.Ir.pu_lang);
            let proc (m : Whirl.Ir.module_) =
              Lang.Sema.String_map.find pu.Whirl.Ir.pu_name
                m.Whirl.Ir.m_program.Lang.Sema.prog_procs
            in
            let pi = proc m and pi' = proc m' in
            field "kind"
              (pi.Lang.Sema.pi_proc.Lang.Ast.proc_kind
              = pi'.Lang.Sema.pi_proc.Lang.Ast.proc_kind);
            field "procedure file"
              (String.equal pi.Lang.Sema.pi_file pi'.Lang.Sema.pi_file);
            field "procedure object"
              (String.equal pi.Lang.Sema.pi_object pi'.Lang.Sema.pi_object);
            field "procedure language"
              (pi.Lang.Sema.pi_language = pi'.Lang.Sema.pi_language);
            same_symtab what pu.Whirl.Ir.pu_symtab pu'.Whirl.Ir.pu_symtab;
            same_wn what (Whirl.Ir.body pu) (Whirl.Ir.body pu'))
          m.Whirl.Ir.m_pus m'.Whirl.Ir.m_pus;
        Alcotest.(check (list string)) (corpus ^ " procedure order")
          m.Whirl.Ir.m_program.Lang.Sema.prog_order
          m'.Whirl.Ir.m_program.Lang.Sema.prog_order;
        Alcotest.(check (list string)) (corpus ^ " files")
          m.Whirl.Ir.m_program.Lang.Sema.prog_files
          m'.Whirl.Ir.m_program.Lang.Sema.prog_files)
    (corpora ())

(* A PU's digest names its content, not how its trees share strings: a
   copy whose nodes carry equal but unshared file names digests the same *)
let test_digest_ignores_sharing () =
  let s = Whirl.Whirl_io.scratch () in
  let rec unshare (w : Whirl.Wn.t) =
    let l = w.Whirl.Wn.linenum in
    {
      w with
      Whirl.Wn.linenum =
        Lang.Loc.make
          ~file:(Bytes.to_string (Bytes.of_string (Lang.Loc.file l)))
          ~line:(Lang.Loc.line l) ~col:(Lang.Loc.col l);
      kids = Array.map unshare w.Whirl.Wn.kids;
    }
  in
  List.iter
    (fun (corpus, files) ->
      let m = lowered files in
      List.iter
        (fun pu ->
          let pu' = Whirl.Ir.with_body pu (unshare (Whirl.Ir.body pu)) in
          if
            not
              (Digest.equal
                 (Whirl.Whirl_io.pu_digest s m pu)
                 (Whirl.Whirl_io.pu_digest s m pu'))
          then
            Alcotest.failf "%s %s: digest depends on string sharing" corpus
              pu.Whirl.Ir.pu_name)
        m.Whirl.Ir.m_pus)
    [ ("fig1", [ Corpus.Small.fig1_f ]); ("matrix", [ Corpus.Small.matrix_c ]) ]

(* a .B file of an older build: the line-oriented text dump *)
let text_image =
  {|whirl 1
global
ty scalar int
st t 0 text 0 "t.f" 1 7 -
endglobal
pu t 1073741824 "t.f" "t.o" fortran 1 7 program
formals 
ty scalar int
st x 0 auto 1431896064 "t.f" 1 7 -
wn 0 FUNC_ENTRY 1073741824 0 0 0 0x0p+0 - "t.f" 1 7 ""
wn 1 BLOCK -1 0 0 0 0x0p+0 - "t.f" 1 7 ""
wn 2 STID 0 0 0 0 0x0p+0 - "t.f" 3 7 ""
wn 3 INTCONST -1 0 0 1 0x0p+0 int "<none>" 0 0 ""
endpu
endmodule
|}

(* A damaged .B file is an [Error], never an exception and never a
   module: every flipped byte of fig1's file (the checksum catches them);
   mutations resealed with a fresh checksum, which the decoder itself must
   reject; and a text file of an older build. *)
let test_damaged_files () =
  let check what text =
    match Whirl.Whirl_io.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s parsed" what
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  let m = lowered [ Corpus.Small.fig1_f ] in
  let fig1 = Whirl.Whirl_io.write m in
  let n = String.length fig1 in
  for i = 0 to n - 1 do
    List.iter
      (fun x ->
        let b = Bytes.of_string fig1 in
        Bytes.set b i (Char.chr (Char.code fig1.[i] lxor x));
        check (Printf.sprintf "byte %d/%d xor %d" i n x) (Bytes.to_string b))
      [ 0x01; 0x80; 0xff ]
  done;
  let body = unsealed fig1 in
  let set i c = String.mapi (fun j d -> if i = j then c else d) body in
  let find needle =
    let rec go i =
      if i + String.length needle > String.length body then
        Alcotest.failf "fig1 image holds no %S" needle
      else if String.equal (String.sub body i (String.length needle)) needle
      then i
      else go (i + 1)
    in
    go 0
  in
  (* a length-prefixed string, as the image holds it *)
  let str x =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int (String.length x));
    Bytes.to_string b ^ x
  in
  let replace old by =
    let i = find old in
    String.sub body 0 i ^ by
    ^ String.sub body (i + String.length old)
        (String.length body - i - String.length old)
  in
  let first_tree =
    let pu = List.hd m.Whirl.Ir.m_pus in
    find (snd (Whirl.Whirl_io.encode_trees (Whirl.Whirl_io.scratch ()) m [ pu ]))
  in
  (* the version byte comes just before the global table's first type *)
  let version = find ("S" ^ str "int") - 1 in
  List.iter
    (fun (what, body) -> check (what ^ ", resealed") (seal body))
    [
      ("magic", set 0 'w');
      ("version", set version '\002');
      ("a trailing byte", body ^ "\000");
      ("no end marker", String.sub body 0 (String.length body - 1));
      ("end marker read as a PU", set (String.length body - 1) 'p');
      ("bad end marker", set (String.length body - 1) 'x');
      ("bad PU marker", set (pu_start m 0) 'x');
      ("unknown type name", replace (str "int") (str "integer"));
      ("unknown storage class", replace (str "auto") (str "stack"));
      ("entry symbol's storage class", replace (str "text") (str "code"));
      ("unknown procedure kind", replace (str "program") (str "module"));
      ("unknown index-array property", replace (str "-") (str "x"));
      ("string longer than the image", replace (str "fig1.o")
         ("\255\255\255\255\255\255\255\063fig1.o"));
      ("negative string length", replace (str "fig1.o")
         ("\255\255\255\255\255\255\255\255fig1.o"));
      ("operator tag out of range", set first_tree '\200');
    ];
  check "a text .B of an older build" text_image

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
    Alcotest.test_case ".B images round-trip every field (six corpora)" `Quick
      test_module_images;
    Alcotest.test_case "digests ignore string sharing" `Quick
      test_digest_ignores_sharing;
    Alcotest.test_case "damaged .B files are errors" `Quick test_damaged_files;
  ]
