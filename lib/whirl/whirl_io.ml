(* Line-oriented WHIRL dump/reload.  See the .mli for the format sketch. *)

let all_operators =
  [
    Wn.OPR_FUNC_ENTRY; Wn.OPR_BLOCK; Wn.OPR_DO_LOOP; Wn.OPR_WHILE_DO;
    Wn.OPR_IF; Wn.OPR_STID; Wn.OPR_LDID; Wn.OPR_ISTORE; Wn.OPR_ILOAD;
    Wn.OPR_ARRAY; Wn.OPR_COIDX; Wn.OPR_LDA; Wn.OPR_IDNAME; Wn.OPR_CALL;
    Wn.OPR_PARM; Wn.OPR_INTCONST; Wn.OPR_CONST; Wn.OPR_STRCONST; Wn.OPR_ADD;
    Wn.OPR_SUB; Wn.OPR_MPY; Wn.OPR_DIV; Wn.OPR_MOD; Wn.OPR_NEG; Wn.OPR_EQ;
    Wn.OPR_NE; Wn.OPR_LT; Wn.OPR_LE; Wn.OPR_GT; Wn.OPR_GE; Wn.OPR_LAND;
    Wn.OPR_LIOR; Wn.OPR_LNOT; Wn.OPR_INTRINSIC_OP; Wn.OPR_RETURN; Wn.OPR_IO;
    Wn.OPR_NOP;
  ]

let operator_of_name =
  let tbl = Hashtbl.create 64 in
  List.iter (fun op -> Hashtbl.replace tbl (Wn.operator_name op) op) all_operators;
  fun name -> Hashtbl.find_opt tbl name

let dtype_name = Lang.Ast.dtype_name

let dtype_of_name = function
  | "int" -> Some Lang.Ast.Int_t
  | "real" -> Some Lang.Ast.Real_t
  | "double" -> Some Lang.Ast.Double_t
  | "char" -> Some Lang.Ast.Char_t
  | "logical" -> Some Lang.Ast.Logical_t
  | _ -> None

let res_name = function None -> "-" | Some d -> dtype_name d

let res_of_name = function "-" -> Ok None | s -> (
  match dtype_of_name s with
  | Some d -> Ok (Some d)
  | None -> Error (Printf.sprintf "bad result type %S" s))

let bound_str = function None -> "?" | Some n -> string_of_int n

let bound_of_str = function
  | "?" -> Ok None
  | s -> (
    match int_of_string_opt s with
    | Some n -> Ok (Some n)
    | None -> Error (Printf.sprintf "bad bound %S" s))

let sclass_str = function
  | Symtab.Sclass_auto -> "auto"
  | Symtab.Sclass_formal -> "formal"
  | Symtab.Sclass_common b -> "common:" ^ b
  | Symtab.Sclass_text -> "text"

let sclass_of_str s =
  match s with
  | "auto" -> Ok Symtab.Sclass_auto
  | "formal" -> Ok Symtab.Sclass_formal
  | "text" -> Ok Symtab.Sclass_text
  | _ ->
    if String.length s > 7 && String.sub s 0 7 = "common:" then
      Ok (Symtab.Sclass_common (String.sub s 7 (String.length s - 7)))
    else Error (Printf.sprintf "bad storage class %S" s)

(* ------------------------------------------------------------------ *)
(* Writing *)

let write_symtab buf st =
  (* types, in index order *)
  let rec tys i =
    match Symtab.ty st i with
    | exception Invalid_argument _ -> ()
    | Symtab.Ty_scalar d ->
      Buffer.add_string buf (Printf.sprintf "ty scalar %s\n" (dtype_name d));
      tys (i + 1)
    | Symtab.Ty_array { elem; dims; contiguous } ->
      Buffer.add_string buf
        (Printf.sprintf "ty array %s %d %d %s\n" (dtype_name elem)
           (if contiguous then 1 else 0)
           (List.length dims)
           (String.concat " "
              (List.map
                 (fun (lo, hi) -> bound_str lo ^ ":" ^ bound_str hi)
                 dims)));
      tys (i + 1)
  in
  tys 0;
  Symtab.iter_st st (fun _ e ->
      Buffer.add_string buf
        (Printf.sprintf "st %s %d %s %d %S %d %d %s\n" e.Symtab.st_name
           e.Symtab.st_ty (sclass_str e.Symtab.st_sclass) e.Symtab.st_mem_loc
           (Lang.Loc.file e.Symtab.st_loc)
           (Lang.Loc.line e.Symtab.st_loc)
           (Lang.Loc.col e.Symtab.st_loc)
           (Lang.Iprop.to_token e.Symtab.st_iprop)))

let rec write_wn buf depth (w : Wn.t) =
  Buffer.add_string buf
    (Printf.sprintf "wn %d %s %d %d %d %d %h %s %S %d %d %S\n" depth
       (Wn.operator_name w.Wn.operator)
       w.Wn.st_idx w.Wn.offset w.Wn.elem_size w.Wn.const_val w.Wn.flt_val
       (res_name w.Wn.res)
       (Lang.Loc.file w.Wn.linenum)
       (Lang.Loc.line w.Wn.linenum)
       (Lang.Loc.col w.Wn.linenum)
       w.Wn.str_val);
  Array.iter (write_wn buf (depth + 1)) w.Wn.kids

let kind_str = function
  | Lang.Ast.Program -> "program"
  | Lang.Ast.Subroutine -> "subroutine"
  | Lang.Ast.Function d -> "function:" ^ dtype_name d

let kind_of_str s =
  match s with
  | "program" -> Ok Lang.Ast.Program
  | "subroutine" -> Ok Lang.Ast.Subroutine
  | _ ->
    if String.length s > 9 && String.sub s 0 9 = "function:" then
      match dtype_of_name (String.sub s 9 (String.length s - 9)) with
      | Some d -> Ok (Lang.Ast.Function d)
      | None -> Error (Printf.sprintf "bad function kind %S" s)
    else Error (Printf.sprintf "bad procedure kind %S" s)

let proc_kind m name =
  match Lang.Sema.String_map.find_opt name m.Ir.m_program.Lang.Sema.prog_procs with
  | Some pi -> pi.Lang.Sema.pi_proc.Lang.Ast.proc_kind
  | None -> Lang.Ast.Subroutine

let write_pu buf (m : Ir.module_) pu =
  Buffer.add_string buf
    (Printf.sprintf "pu %s %d %S %S %s %d %d %s\n" pu.Ir.pu_name
       pu.Ir.pu_st pu.Ir.pu_file pu.Ir.pu_object
       (match pu.Ir.pu_lang with Lang.Ast.Fortran -> "fortran" | Lang.Ast.C -> "c")
       (Lang.Loc.line pu.Ir.pu_loc)
       (Lang.Loc.col pu.Ir.pu_loc)
       (kind_str (proc_kind m pu.Ir.pu_name)));
  Buffer.add_string buf
    (Printf.sprintf "formals %s\n"
       (String.concat " " (List.map string_of_int pu.Ir.pu_formals)));
  write_symtab buf pu.Ir.pu_symtab;
  write_wn buf 0 (Ir.body pu);
  Buffer.add_string buf "endpu\n"

(* Content images for the engine's digests: a compact binary encoding of
   the fields the textual format round-trips, minus the formatting cost
   (one [Printf.sprintf] per WN node is what makes [write] too slow to run
   on every cache probe), and minus every [st_mem_loc]: [Layout] derives
   those from the table alone (and, for a PU, its module position), so an
   image reads the same before and after layout.

   A PU's image is a prefix (header, formals, local symbol table) followed
   by its tree part.  The frontend cache stores the tree parts as a file's
   tree entry, and [decode_trees] reads them back: every tree field is
   encoded losslessly, and a decoded tree is accepted only if its stored
   bytes, behind the prefix rebuilt from the PU, hash to the PU's digest.

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

let add_symtab_content s st =
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
         no analysis result reads it, and keeping it would make a line
         inserted above one procedure miss every PU of the program *)
      if e.Symtab.st_sclass <> Symtab.Sclass_text then
        add_loc s e.Symtab.st_loc;
      (* index-array directives are analysis inputs: editing one must miss
         the content-addressed caches and re-analyze every user *)
      add_str s (Lang.Iprop.to_token e.Symtab.st_iprop))

let operators = Array.of_list all_operators

(* an operator's position in [all_operators] *)
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

(* The file component of WN locations is almost always the same string
   (physically) as the previous node's, so it is run-length memoized; the
   fallback writes the full length-prefixed string, which keeps the
   encoding injective. *)
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
  if f == !last_file then add_char s '='
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
  add_symtab_content s pu.Ir.pu_symtab

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

(* Decoding a tree part.  Every read is bounds-checked and every tag
   range-checked: bad input raises [Bad_image] only, which
   [decode_trees] turns into an [Error]. *)

exception Bad_image of string

let bad fmt = Printf.ksprintf (fun e -> raise (Bad_image e)) fmt

type reader = { src : string; mutable pos : int }

let need r k =
  if k < 0 || r.pos > String.length r.src - k then
    bad "truncated at byte %d" r.pos

let get_char r =
  need r 1;
  let c = String.unsafe_get r.src r.pos in
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

(* a node takes at least this many bytes: a bound on any kid count *)
let min_node = 12

let rec get_wn r files last_file last_loc =
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
  | '#' ->
    let file = get_sub r (get_int r) in
    (* one string per file name, as in the lowered trees *)
    last_file :=
      (match List.find_opt (String.equal file) !files with
      | Some f -> f
      | None ->
        files := file :: !files;
        file)
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
  let kids = Array.init nkids (fun _ -> get_wn r files last_file last_loc) in
  { Wn.operator; kids; linenum; offset; elem_size; const_val; flt_val;
    str_val; st_idx; res }

let decode_trees s m pus src =
  let r = { src; pos = 0 } and files = ref [] in
  match
    List.map
      (fun ((pu : Ir.pu), want) ->
        let start = r.pos in
        let w = get_wn r files (ref "") (ref Lang.Loc.dummy) in
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

let write (m : Ir.module_) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "whirl 1\nglobal\n";
  write_symtab buf m.Ir.m_global;
  Buffer.add_string buf "endglobal\n";
  List.iter (write_pu buf m) m.Ir.m_pus;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let pu_to_string m pu =
  let buf = Buffer.create 1024 in
  write_pu buf m pu;
  Buffer.contents buf

let symtab_digest st =
  let s = scratch () in
  add_symtab_content s st;
  digest_from s 0

(* ------------------------------------------------------------------ *)
(* Parsing *)

type cursor = { mutable lines : string list; mutable lineno : int }

exception Parse_error of string

let fail c fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" c.lineno s))) fmt

let peek_line c =
  match c.lines with [] -> None | l :: _ -> Some l

let next_line c =
  match c.lines with
  | [] -> fail c "unexpected end of file"
  | l :: rest ->
    c.lines <- rest;
    c.lineno <- c.lineno + 1;
    l

let expect_line c expected =
  let l = next_line c in
  if String.trim l <> expected then fail c "expected %S, got %S" expected l

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* read "ty"/"st" lines into a fresh symtab *)
let parse_symtab c =
  let st = Symtab.create () in
  let ok = ref true in
  while !ok do
    match peek_line c with
    | Some l when starts_with "ty " l ->
      ignore (next_line c);
      let parts =
        String.split_on_char ' ' (String.trim l) |> List.filter (( <> ) "")
      in
      (match parts with
      | [ "ty"; "scalar"; d ] -> (
        match dtype_of_name d with
        | Some d -> ignore (Symtab.intern_ty st (Symtab.Ty_scalar d))
        | None -> fail c "bad scalar type %S" d)
      | "ty" :: "array" :: d :: contig :: _n :: dims -> (
        match dtype_of_name d with
        | None -> fail c "bad array element type %S" d
        | Some elem ->
          let dims =
            List.map
              (fun spec ->
                match String.split_on_char ':' spec with
                | [ lo; hi ] -> (
                  match bound_of_str lo, bound_of_str hi with
                  | Ok lo, Ok hi -> (lo, hi)
                  | Error e, _ | _, Error e -> fail c "%s" e)
                | _ -> fail c "bad dimension spec %S" spec)
              dims
          in
          ignore
            (Symtab.intern_ty st
               (Symtab.Ty_array { elem; dims; contiguous = contig = "1" })))
      | _ -> fail c "bad ty line %S" l)
    | Some l when starts_with "st " l ->
      ignore (next_line c);
      (try
         Scanf.sscanf l "st %s %d %s %d %S %d %d %s"
           (fun name ty sclass mem file line col iptok ->
             match sclass_of_str sclass with
             | Error e -> fail c "%s" e
             | Ok sclass ->
               (* legacy lines have no property token; unknown tokens
                  degrade to no assertions — never strengthen an answer
                  from an unparsed field *)
               let iprop =
                 if iptok = "" then Lang.Iprop.none
                 else
                   Option.value
                     (Lang.Iprop.of_token iptok)
                     ~default:Lang.Iprop.none
               in
               let idx =
                 Symtab.enter_st st ~iprop ~name ~ty ~sclass
                   ~loc:(Lang.Loc.make ~file ~line ~col) ()
               in
               (Symtab.st st idx).Symtab.st_mem_loc <- mem)
       with Scanf.Scan_failure _ | Failure _ -> fail c "bad st line %S" l)
    | _ -> ok := false
  done;
  st

type proto_wn = {
  pw_depth : int;
  pw_node : Wn.t;  (* without kids *)
}

let parse_wn_lines c =
  let protos = ref [] in
  let ok = ref true in
  while !ok do
    match peek_line c with
    | Some l when starts_with "wn " l ->
      ignore (next_line c);
      (try
         Scanf.sscanf l "wn %d %s %d %d %d %d %h %s %S %d %d %S"
           (fun depth opname st_idx offset elem_size const_val flt_val res
                file line col str_val ->
             match operator_of_name opname, res_of_name res with
             | None, _ -> fail c "unknown operator %S" opname
             | _, Error e -> fail c "%s" e
             | Some operator, Ok res ->
               let node =
                 {
                   Wn.operator;
                   kids = [||];
                   linenum = Lang.Loc.make ~file ~line ~col;
                   offset;
                   elem_size;
                   const_val;
                   flt_val;
                   str_val;
                   st_idx;
                   res;
                 }
               in
               protos := { pw_depth = depth; pw_node = node } :: !protos)
       with Scanf.Scan_failure _ | Failure _ -> fail c "bad wn line %S" l)
    | _ -> ok := false
  done;
  List.rev !protos

(* rebuild the tree from the preorder/depth list *)
let rec build_tree protos depth =
  match protos with
  | p :: rest when p.pw_depth = depth ->
    let kids, rest = build_kids rest (depth + 1) in
    ({ p.pw_node with Wn.kids = Array.of_list kids }, rest)
  | _ -> raise (Parse_error "malformed WN tree")

and build_kids protos depth =
  match protos with
  | p :: _ when p.pw_depth = depth ->
    let kid, rest = build_tree protos depth in
    let kids, rest = build_kids rest depth in
    (kid :: kids, rest)
  | _ -> ([], protos)

let stub_proc name kind file line =
  {
    Lang.Ast.proc_name = name;
    proc_kind = kind;
    proc_params = [];
    proc_decls = [];
    proc_consts = [];
    proc_body = [];
    proc_loc = Lang.Loc.make ~file ~line ~col:1;
  }

let parse text =
  let c =
    { lines = String.split_on_char '\n' text
              |> List.filter (fun l -> String.trim l <> "");
      lineno = 0 }
  in
  try
    expect_line c "whirl 1";
    expect_line c "global";
    let global = parse_symtab c in
    expect_line c "endglobal";
    let pus = ref [] in
    let procs = ref Lang.Sema.String_map.empty in
    let order = ref [] in
    let files = ref [] in
    let ok = ref true in
    while !ok do
      match peek_line c with
      | Some l when starts_with "pu " l ->
        ignore (next_line c);
        Scanf.sscanf l "pu %s %d %S %S %s %d %d %s"
          (fun name pu_st file object_ lang line col kind ->
            let lang =
              match lang with
              | "fortran" -> Lang.Ast.Fortran
              | "c" -> Lang.Ast.C
              | other -> fail c "bad language %S" other
            in
            let kind =
              match kind_of_str kind with
              | Ok k -> k
              | Error e -> fail c "%s" e
            in
            let formals_line = next_line c in
            if not (starts_with "formals" formals_line) then
              fail c "expected formals line, got %S" formals_line;
            let formals =
              String.split_on_char ' ' (String.trim formals_line)
              |> List.tl
              |> List.filter (( <> ) "")
              |> List.map (fun s ->
                     match int_of_string_opt s with
                     | Some n -> n
                     | None -> fail c "bad formal index %S" s)
            in
            let symtab = parse_symtab c in
            let protos = parse_wn_lines c in
            let body, leftover = build_tree protos 0 in
            if leftover <> [] then fail c "trailing WN lines in %s" name;
            expect_line c "endpu";
            let pu =
              {
                Ir.pu_name = name;
                pu_st;
                pu_formals = formals;
                pu_body = Ir.tree body;
                pu_symtab = symtab;
                pu_loc = Lang.Loc.make ~file ~line ~col;
                pu_file = file;
                pu_object = object_;
                pu_lang = lang;
              }
            in
            pus := pu :: !pus;
            order := name :: !order;
            if not (List.mem file !files) then files := file :: !files;
            procs :=
              Lang.Sema.String_map.add name
                {
                  Lang.Sema.pi_proc = stub_proc name kind file line;
                  pi_symbols = Lang.Sema.String_map.empty;
                  pi_file = file;
                  pi_object = object_;
                  pi_language = lang;
                }
                !procs)
      | Some "endmodule" ->
        ignore (next_line c);
        ok := false
      | Some other -> fail c "unexpected line %S" other
      | None -> fail c "missing endmodule"
    done;
    let program =
      {
        Lang.Sema.prog_procs = !procs;
        prog_order = List.rev !order;
        prog_globals = Lang.Sema.String_map.empty;
        prog_global_scalars = Lang.Sema.String_map.empty;
        prog_files = List.rev !files;
        prog_warnings = [];
      }
    in
    Ok
      {
        Ir.m_id = Ir.fresh_module_id ();
        m_global = global;
        m_pus = List.rev !pus;
        m_program = program;
      }
  with
  | Parse_error e -> Error e
  | Scanf.Scan_failure e -> Error e
  (* sscanf on a truncated line: its input ends before the format does *)
  | End_of_file -> Error (Printf.sprintf "line %d: truncated line" c.lineno)
  | Failure e -> Error (Printf.sprintf "line %d: %s" c.lineno e)

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
