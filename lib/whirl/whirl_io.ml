(* WHIRL content images: the .B file format, the engine's PU digests and
   the frontend cache's tree entries, one encoding and one decoder.  See
   the .mli for the layout. *)

(* indexed by an operator's tag byte, [operator_tag] *)
let operators =
  [|
    Wn.OPR_FUNC_ENTRY; Wn.OPR_BLOCK; Wn.OPR_DO_LOOP; Wn.OPR_WHILE_DO;
    Wn.OPR_IF; Wn.OPR_STID; Wn.OPR_LDID; Wn.OPR_ISTORE; Wn.OPR_ILOAD;
    Wn.OPR_ARRAY; Wn.OPR_COIDX; Wn.OPR_LDA; Wn.OPR_IDNAME; Wn.OPR_CALL;
    Wn.OPR_PARM; Wn.OPR_INTCONST; Wn.OPR_CONST; Wn.OPR_STRCONST; Wn.OPR_ADD;
    Wn.OPR_SUB; Wn.OPR_MPY; Wn.OPR_DIV; Wn.OPR_MOD; Wn.OPR_NEG; Wn.OPR_EQ;
    Wn.OPR_NE; Wn.OPR_LT; Wn.OPR_LE; Wn.OPR_GT; Wn.OPR_GE; Wn.OPR_LAND;
    Wn.OPR_LIOR; Wn.OPR_LNOT; Wn.OPR_INTRINSIC_OP; Wn.OPR_RETURN; Wn.OPR_IO;
    Wn.OPR_NOP;
  |]

let dtype_name = Lang.Ast.dtype_name

let sclass_str = function
  | Symtab.Sclass_auto -> "auto"
  | Symtab.Sclass_formal -> "formal"
  | Symtab.Sclass_common b -> "common:" ^ b
  | Symtab.Sclass_text -> "text"

let kind_str = function
  | Lang.Ast.Program -> "program"
  | Lang.Ast.Subroutine -> "subroutine"
  | Lang.Ast.Function d -> "function:" ^ dtype_name d

let proc_kind m name =
  match Lang.Sema.String_map.find_opt name m.Ir.m_program.Lang.Sema.prog_procs with
  | Some pi -> pi.Lang.Sema.pi_proc.Lang.Ast.proc_kind
  | None -> Lang.Ast.Subroutine

(* ------------------------------------------------------------------ *)
(* Encoding *)

(* Content images: a compact binary encoding of a module's symbol tables,
   PU headers and trees.  Every field is encoded losslessly except
   [st_mem_loc]: [Layout] derives those from the table alone (and, for a
   PU, its module position), so an image reads the same before and after
   layout.

   A PU's image is a prefix (header, formals, local symbol table) followed
   by its tree part.  The engine digests it, the frontend cache stores the
   tree parts as a file's tree entry, and a .B file is the whole module's
   images behind its global table.

   Images are built in a [scratch]: a growable byte array whose ranges can
   be hashed in place, so encoding a file's PUs copies no image. *)

type scratch = { mutable b : Bytes.t; mutable len : int }

let scratch () = { b = Bytes.create 4096; len = 0 }

let reserve s k =
  if s.len + k > Bytes.length s.b then begin
    let b = Bytes.create (max (s.len + k) (2 * Bytes.length s.b)) in
    Bytes.blit s.b 0 b 0 s.len;
    s.b <- b
  end

let add_char s c =
  reserve s 1;
  Bytes.unsafe_set s.b s.len c;
  s.len <- s.len + 1

let add_bytes s src off len =
  reserve s len;
  Bytes.blit_string src off s.b s.len len;
  s.len <- s.len + len

let add_i64 s x =
  reserve s 8;
  Bytes.set_int64_le s.b s.len x;
  s.len <- s.len + 8

(* [x]'s [k] low bytes, little-endian, the sign extended: the bytes of
   [Int64.of_int x] (k = 8) or [Int32.of_int x] (k = 4), without boxing *)
let add_le s x k =
  reserve s k;
  for i = 0 to k - 1 do
    Bytes.unsafe_set s.b (s.len + i)
      (Char.unsafe_chr ((x asr (8 * i)) land 0xff))
  done;
  s.len <- s.len + k

let add_int s x = add_le s x 8

let add_str s str =
  add_int s (String.length str);
  add_bytes s str 0 (String.length str)

let add_loc s loc =
  add_str s (Lang.Loc.file loc);
  add_int s (Lang.Loc.line loc);
  add_int s (Lang.Loc.col loc)

let add_symtab_content ~entry_locs s st =
  let rec tys i =
    match Symtab.ty st i with
    | exception Invalid_argument _ -> ()
    | Symtab.Ty_scalar d ->
      add_char s 'S';
      add_str s (dtype_name d);
      tys (i + 1)
    | Symtab.Ty_array { elem; dims; contiguous } ->
      add_char s 'A';
      add_str s (dtype_name elem);
      add_char s (if contiguous then 'c' else 'n');
      add_int s (List.length dims);
      List.iter
        (fun (lo, hi) ->
          add_int s (Option.value lo ~default:min_int);
          add_int s (Option.value hi ~default:min_int))
        dims;
      tys (i + 1)
  in
  tys 0;
  Symtab.iter_st st (fun _ e ->
      add_char s 's';
      add_str s e.Symtab.st_name;
      add_int s e.Symtab.st_ty;
      add_str s (sclass_str e.Symtab.st_sclass);
      (* a procedure entry symbol's location is where its file defines it:
         no analysis result reads it, and keeping it in a digest would make
         a line inserted above one procedure miss every PU of the program.
         A .B file keeps it, so the module it holds reads back whole. *)
      if entry_locs || e.Symtab.st_sclass <> Symtab.Sclass_text then
        add_loc s e.Symtab.st_loc;
      (* index-array directives are analysis inputs: editing one must miss
         the content-addressed caches and re-analyze every user *)
      add_str s (Lang.Iprop.to_token e.Symtab.st_iprop))

(* an operator's position in [operators] *)
let operator_tag = function
  | Wn.OPR_FUNC_ENTRY -> '\000'
  | Wn.OPR_BLOCK -> '\001'
  | Wn.OPR_DO_LOOP -> '\002'
  | Wn.OPR_WHILE_DO -> '\003'
  | Wn.OPR_IF -> '\004'
  | Wn.OPR_STID -> '\005'
  | Wn.OPR_LDID -> '\006'
  | Wn.OPR_ISTORE -> '\007'
  | Wn.OPR_ILOAD -> '\008'
  | Wn.OPR_ARRAY -> '\009'
  | Wn.OPR_COIDX -> '\010'
  | Wn.OPR_LDA -> '\011'
  | Wn.OPR_IDNAME -> '\012'
  | Wn.OPR_CALL -> '\013'
  | Wn.OPR_PARM -> '\014'
  | Wn.OPR_INTCONST -> '\015'
  | Wn.OPR_CONST -> '\016'
  | Wn.OPR_STRCONST -> '\017'
  | Wn.OPR_ADD -> '\018'
  | Wn.OPR_SUB -> '\019'
  | Wn.OPR_MPY -> '\020'
  | Wn.OPR_DIV -> '\021'
  | Wn.OPR_MOD -> '\022'
  | Wn.OPR_NEG -> '\023'
  | Wn.OPR_EQ -> '\024'
  | Wn.OPR_NE -> '\025'
  | Wn.OPR_LT -> '\026'
  | Wn.OPR_LE -> '\027'
  | Wn.OPR_GT -> '\028'
  | Wn.OPR_GE -> '\029'
  | Wn.OPR_LAND -> '\030'
  | Wn.OPR_LIOR -> '\031'
  | Wn.OPR_LNOT -> '\032'
  | Wn.OPR_INTRINSIC_OP -> '\033'
  | Wn.OPR_RETURN -> '\034'
  | Wn.OPR_IO -> '\035'
  | Wn.OPR_NOP -> '\036'

let dtypes =
  Lang.Ast.[| Int_t; Real_t; Double_t; Char_t; Logical_t |]

let dtype_tag = function
  | Lang.Ast.Int_t -> '\001'
  | Lang.Ast.Real_t -> '\002'
  | Lang.Ast.Double_t -> '\003'
  | Lang.Ast.Char_t -> '\004'
  | Lang.Ast.Logical_t -> '\005'

let res_tag = function None -> '\000' | Some d -> dtype_tag d

(* Small non-negative ints (nearly every field) take one byte, other
   32-bit ints a marker and four bytes; the rest (and [Int32.min_int],
   their escape) add eight more bytes. *)
let add_ci s x =
  if x >= 0 && x < 255 then add_char s (Char.unsafe_chr x)
  else begin
    add_char s '\255';
    if x > -0x8000_0000 && x <= 0x7fff_ffff then add_le s x 4
    else begin
      add_le s (-0x8000_0000) 4;
      add_int s x
    end
  end

(* The file component of WN locations is almost always the previous
   node's, so it is run-length memoized: compared by value, so a tree's
   image does not depend on how its nodes share strings.  The fallback
   writes the full length-prefixed string, which keeps the encoding
   injective. *)
let rec add_wn_content s last_file (w : Wn.t) =
  add_char s (operator_tag w.Wn.operator);
  add_ci s w.Wn.st_idx;
  add_ci s w.Wn.offset;
  add_ci s w.Wn.elem_size;
  (* const_val/flt_val/str_val are zero/empty on all but constant nodes *)
  (if w.Wn.const_val = 0 then add_char s '\000'
   else begin
     add_char s '\001';
     add_int s w.Wn.const_val
   end);
  (if Int64.bits_of_float w.Wn.flt_val = 0L then add_char s '\000'
   else begin
     add_char s '\001';
     add_i64 s (Int64.bits_of_float w.Wn.flt_val)
   end);
  add_char s (res_tag w.Wn.res);
  let f = Lang.Loc.file w.Wn.linenum in
  if String.equal f !last_file then add_char s '='
  else begin
    add_char s '#';
    add_str s f;
    last_file := f
  end;
  add_ci s (Lang.Loc.line w.Wn.linenum);
  add_ci s (Lang.Loc.col w.Wn.linenum);
  (if w.Wn.str_val = "" then add_char s '\000'
   else begin
     add_char s '\001';
     add_ci s (String.length w.Wn.str_val);
     add_bytes s w.Wn.str_val 0 (String.length w.Wn.str_val)
   end);
  add_ci s (Array.length w.Wn.kids);
  for i = 0 to Array.length w.Wn.kids - 1 do
    add_wn_content s last_file w.Wn.kids.(i)
  done

(* everything of a PU's image before its tree part *)
let add_prefix s (m : Ir.module_) pu =
  add_str s pu.Ir.pu_name;
  add_int s pu.Ir.pu_st;
  add_str s pu.Ir.pu_file;
  add_str s pu.Ir.pu_object;
  add_char s
    (match pu.Ir.pu_lang with Lang.Ast.Fortran -> 'f' | Lang.Ast.C -> 'c');
  add_loc s pu.Ir.pu_loc;
  add_str s (kind_str (proc_kind m pu.Ir.pu_name));
  add_int s (List.length pu.Ir.pu_formals);
  List.iter (add_int s) pu.Ir.pu_formals;
  add_symtab_content ~entry_locs:false s pu.Ir.pu_symtab

let digest_from s off = Digest.subbytes s.b off (s.len - off)

let pu_digest s m pu =
  s.len <- 0;
  add_prefix s m pu;
  add_wn_content s (ref "") (Ir.body pu);
  digest_from s 0

let encode_trees s m pus =
  s.len <- 0;
  let parts =
    List.map
      (fun pu ->
        let start = s.len in
        add_prefix s m pu;
        let tree = s.len in
        add_wn_content s (ref "") (Ir.body pu);
        (digest_from s start, tree, s.len - tree))
      pus
  in
  let size = List.fold_left (fun n (_, _, len) -> n + len) 0 parts in
  let out = Bytes.create size in
  let _ =
    List.fold_left
      (fun pos (_, off, len) ->
        Bytes.blit s.b off out pos len;
        pos + len)
      0 parts
  in
  (List.map (fun (d, _, _) -> d) parts, Bytes.unsafe_to_string out)

let symtab_digest st =
  let s = scratch () in
  add_symtab_content ~entry_locs:false s st;
  digest_from s 0

(* a .B file's first bytes: no text file starts with DEL *)
let magic = "\x7fWHIRL\n"
let version = '\001'

let write (m : Ir.module_) =
  let s = scratch () in
  add_bytes s magic 0 (String.length magic);
  add_char s version;
  add_symtab_content ~entry_locs:true s m.Ir.m_global;
  List.iter
    (fun pu ->
      add_char s 'p';
      add_prefix s m pu;
      add_wn_content s (ref "") (Ir.body pu))
    m.Ir.m_pus;
  add_char s 'e';
  let d = digest_from s 0 in
  add_bytes s d 0 (String.length d);
  Bytes.sub_string s.b 0 s.len

(* ------------------------------------------------------------------ *)
(* Decoding *)

(* Every read is bounds-checked and every tag range-checked: bad input
   raises [Bad_image] only, which [decode_trees] and [parse] turn into an
   [Error]. *)

exception Bad_image of string

let bad fmt = Printf.ksprintf (fun e -> raise (Bad_image e)) fmt

type reader = { src : string; mutable pos : int }

let need r k =
  if k < 0 || r.pos > String.length r.src - k then
    bad "truncated at byte %d" r.pos

let peek r =
  need r 1;
  String.unsafe_get r.src r.pos

let get_char r =
  let c = peek r in
  r.pos <- r.pos + 1;
  c

let get_i64 r =
  need r 8;
  let x = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  x

(* the [k] little-endian bytes at the cursor, sign-extended from bit
   [8k - 1] (k = 4), or taken modulo 2^63 as [Int64.to_int] does (k = 8) *)
let get_le r k =
  need r k;
  let x = ref 0 in
  for i = k - 1 downto 0 do
    x := (!x lsl 8) lor Char.code (String.unsafe_get r.src (r.pos + i))
  done;
  r.pos <- r.pos + k;
  if k = 4 && !x >= 0x8000_0000 then !x - 0x1_0000_0000 else !x

let get_int r = get_le r 8

let get_ci r =
  match get_char r with
  | '\255' ->
    let x = get_le r 4 in
    if x = -0x8000_0000 then get_int r else x
  | c -> Char.code c

let get_sub r len =
  need r len;
  let str = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  str

let get_str r = get_sub r (get_int r)

(* a count of items that take at least [size] bytes each, bounded by what
   is left of the input *)
let get_count r size what =
  let n = get_int r in
  if n < 0 || n > (String.length r.src - r.pos) / size then
    bad "%s count %d at byte %d" what n r.pos;
  n

let get_loc r =
  let file = get_str r in
  let line = get_int r in
  let col = get_int r in
  Lang.Loc.make ~file ~line ~col

let dtype_of_name name =
  match Array.find_opt (fun d -> dtype_name d = name) dtypes with
  | Some d -> d
  | None -> bad "type name %S" name

let get_symtab ~entry_locs r =
  let st = Symtab.create () in
  let rec tys i =
    match peek r with
    | ('S' | 'A') as tag ->
      r.pos <- r.pos + 1;
      let elem = dtype_of_name (get_str r) in
      let kind =
        if tag = 'S' then Symtab.Ty_scalar elem
        else
          let contiguous =
            match get_char r with
            | 'c' -> true
            | 'n' -> false
            | _ -> bad "contiguity flag at byte %d" (r.pos - 1)
          in
          let bound () =
            let x = get_int r in
            if x = min_int then None else Some x
          in
          let dims =
            List.init (get_count r 16 "dimension") (fun _ ->
                let lo = bound () in
                (lo, bound ()))
          in
          Symtab.Ty_array { elem; dims; contiguous }
      in
      (* types are interned: a repeated one would shift every index after it *)
      if Symtab.intern_ty st kind <> i then bad "type %d repeats an earlier one" i;
      tys (i + 1)
    | _ -> i
  in
  let ntys = tys 0 in
  while peek r = 's' do
    r.pos <- r.pos + 1;
    let name = get_str r in
    let ty = get_int r in
    if ty < 0 || ty >= ntys then bad "symbol %S: type %d" name ty;
    let sclass =
      match get_str r with
      | "auto" -> Symtab.Sclass_auto
      | "formal" -> Symtab.Sclass_formal
      | "text" -> Symtab.Sclass_text
      | c when String.starts_with ~prefix:"common:" c ->
        Symtab.Sclass_common (String.sub c 7 (String.length c - 7))
      | c -> bad "symbol %S: storage class %S" name c
    in
    let loc =
      if entry_locs || sclass <> Symtab.Sclass_text then get_loc r
      else Lang.Loc.dummy
    in
    let iprop =
      let tok = get_str r in
      match Lang.Iprop.of_token tok with
      | Some p -> p
      | None -> bad "symbol %S: index properties %S" name tok
    in
    ignore (Symtab.enter_st st ~iprop ~name ~ty ~sclass ~loc ())
  done;
  st

(* a node takes at least this many bytes: a bound on any kid count *)
let min_node = 12

let rec get_wn r last_file last_loc =
  let tag = Char.code (get_char r) in
  if tag >= Array.length operators then bad "operator tag %d" tag;
  let operator = operators.(tag) in
  let st_idx = get_ci r in
  let offset = get_ci r in
  let elem_size = get_ci r in
  let const_val =
    match get_char r with
    | '\000' -> 0
    | '\001' -> get_int r
    | _ -> bad "constant flag at byte %d" (r.pos - 1)
  in
  let flt_val =
    match get_char r with
    | '\000' -> 0.
    | '\001' -> Int64.float_of_bits (get_i64 r)
    | _ -> bad "float flag at byte %d" (r.pos - 1)
  in
  let res =
    match Char.code (get_char r) with
    | 0 -> None
    | k when k <= Array.length dtypes -> Some dtypes.(k - 1)
    | k -> bad "result type tag %d" k
  in
  (match get_char r with
  | '=' -> ()
  | '#' -> last_file := get_str r
  | _ -> bad "file marker at byte %d" (r.pos - 1));
  let line = get_ci r in
  let col = get_ci r in
  let file = !last_file in
  let linenum =
    let l = !last_loc in
    if Lang.Loc.line l = line && Lang.Loc.col l = col && Lang.Loc.file l == file
    then l
    else begin
      let l = Lang.Loc.make ~file ~line ~col in
      last_loc := l;
      l
    end
  in
  let str_val =
    match get_char r with
    | '\000' -> ""
    | '\001' -> get_sub r (get_ci r)
    | _ -> bad "string flag at byte %d" (r.pos - 1)
  in
  let nkids = get_ci r in
  if nkids < 0 || nkids > (String.length r.src - r.pos) / min_node then
    bad "kid count %d at byte %d" nkids r.pos;
  let kids = Array.init nkids (fun _ -> get_wn r last_file last_loc) in
  { Wn.operator; kids; linenum; offset; elem_size; const_val; flt_val;
    str_val; st_idx; res }

let get_tree r = get_wn r (ref "") (ref Lang.Loc.dummy)

let decode_trees s m pus src =
  let r = { src; pos = 0 } in
  match
    List.map
      (fun ((pu : Ir.pu), want) ->
        let start = r.pos in
        let w = get_tree r in
        s.len <- 0;
        add_prefix s m pu;
        add_bytes s src start (r.pos - start);
        if not (Digest.equal (digest_from s 0) want) then
          bad "%s: image does not match its digest" pu.Ir.pu_name;
        w)
      pus
  with
  | ws when r.pos = String.length src -> Ok (Array.of_list ws)
  | _ -> Error (Printf.sprintf "%d trailing bytes" (String.length src - r.pos))
  | exception Bad_image e -> Error e

(* a PU's image, and its procedure kind *)
let get_pu r =
  let pu_name = get_str r in
  let pu_st = get_int r in
  let pu_file = get_str r in
  let pu_object = get_str r in
  let pu_lang =
    match get_char r with
    | 'f' -> Lang.Ast.Fortran
    | 'c' -> Lang.Ast.C
    | _ -> bad "%s: language tag at byte %d" pu_name (r.pos - 1)
  in
  let pu_loc = get_loc r in
  let kind =
    match get_str r with
    | "program" -> Lang.Ast.Program
    | "subroutine" -> Lang.Ast.Subroutine
    | k when String.starts_with ~prefix:"function:" k ->
      Lang.Ast.Function (dtype_of_name (String.sub k 9 (String.length k - 9)))
    | k -> bad "%s: procedure kind %S" pu_name k
  in
  let pu_formals = List.init (get_count r 8 "formal") (fun _ -> get_int r) in
  let pu_symtab = get_symtab ~entry_locs:false r in
  let pu_body = Ir.tree (get_tree r) in
  ( { Ir.pu_name; pu_st; pu_formals; pu_body; pu_symtab; pu_loc; pu_file;
      pu_object; pu_lang },
    kind )

(* what the analysis, the interpreter and the writers read of a procedure:
   its kind, file and object, but an empty body *)
let stub_proc (pu : Ir.pu) kind =
  {
    Lang.Sema.pi_proc =
      {
        Lang.Ast.proc_name = pu.Ir.pu_name;
        proc_kind = kind;
        proc_params = [];
        proc_decls = [];
        proc_consts = [];
        proc_body = [];
        proc_loc =
          Lang.Loc.make ~file:pu.Ir.pu_file ~line:(Lang.Loc.line pu.Ir.pu_loc)
            ~col:1;
      };
    pi_symbols = Lang.Sema.String_map.empty;
    pi_file = pu.Ir.pu_file;
    pi_object = pu.Ir.pu_object;
    pi_language = pu.Ir.pu_lang;
  }

let decode_module r =
  let m_global = get_symtab ~entry_locs:true r in
  let rec pus acc =
    match get_char r with
    | 'p' -> pus (get_pu r :: acc)
    | 'e' -> List.rev acc
    | _ -> bad "PU marker at byte %d" (r.pos - 1)
  in
  let pus = pus [] in
  if r.pos <> String.length r.src then
    bad "%d trailing bytes" (String.length r.src - r.pos);
  let files =
    List.fold_left
      (fun acc ((pu : Ir.pu), _) ->
        if List.mem pu.Ir.pu_file acc then acc else pu.Ir.pu_file :: acc)
      [] pus
  in
  let m =
    {
      Ir.m_id = Ir.fresh_module_id ();
      m_global;
      m_pus = List.map fst pus;
      m_program =
        {
          Lang.Sema.prog_procs =
            List.fold_left
              (fun map ((pu : Ir.pu), kind) ->
                Lang.Sema.String_map.add pu.Ir.pu_name (stub_proc pu kind) map)
              Lang.Sema.String_map.empty pus;
          prog_order = List.map (fun ((pu : Ir.pu), _) -> pu.Ir.pu_name) pus;
          prog_globals = Lang.Sema.String_map.empty;
          prog_global_scalars = Lang.Sema.String_map.empty;
          prog_files = List.rev files;
          prog_warnings = [];
        };
    }
  in
  Layout.assign m;
  m

let parse text =
  let n = String.length text and h = String.length magic in
  (* an MD5 digest's 16 bytes end the image *)
  let body = n - 16 in
  if n < h || not (String.equal (String.sub text 0 h) magic) then
    Error "not a WHIRL image"
  else if body <= h then Error "truncated WHIRL image"
  else if text.[h] <> version then
    Error
      (Printf.sprintf "WHIRL image version %d; this build reads version %d"
         (Char.code text.[h]) (Char.code version))
  else if
    not
      (Digest.equal (Digest.substring text 0 body)
         (String.sub text body 16))
  then Error "WHIRL image checksum mismatch"
  else
    match decode_module { src = String.sub text 0 body; pos = h + 1 } with
    | m -> Ok m
    | exception Bad_image e -> Error e

let save ~path m =
  let oc = open_out_bin path in
  output_string oc (write m);
  close_out oc

let load ~path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  parse s
