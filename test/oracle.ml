(* Reference implementations of the output layer: the straightforward,
   list-based writers and row builder the streaming production code
   replaced.  Every function here must produce exactly the bytes (or rows)
   of its production counterpart; test_output checks that on the corpora
   and on adversarial inputs. *)

open Whirl
open Regions

(* ------------------------------------------------------------------ *)
(* CSV: one field list per record *)

let needs_quoting c = c = ',' || c = '"' || c = '\n'

let add_field buf f =
  if not (String.exists needs_quoting f) then Buffer.add_string buf f
  else begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      f;
    Buffer.add_char buf '"'
  end

let add_row buf fields =
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      add_field buf f)
    fields;
  Buffer.add_char buf '\n'

let write_rgn rows =
  let buf = Buffer.create 4096 in
  add_row buf Rgnfile.Row.header;
  List.iter (fun r -> add_row buf (Rgnfile.Row.to_fields r)) rows;
  Buffer.contents buf

let write_dgn (d : Rgnfile.Files.dgn) =
  let buf = Buffer.create 512 in
  List.iter
    (fun (path, lang) -> add_row buf [ "source"; path; lang ])
    d.Rgnfile.Files.dgn_sources;
  List.iter
    (fun (name, file, line) ->
      add_row buf [ "proc"; name; file; string_of_int line ])
    d.Rgnfile.Files.dgn_procs;
  List.iter
    (fun (caller, callee, line) ->
      add_row buf [ "edge"; caller; callee; string_of_int line ])
    d.Rgnfile.Files.dgn_edges;
  Buffer.contents buf

let write_cfg (blocks : Rgnfile.Files.cfg_block list) =
  let buf = Buffer.create 512 in
  List.iter
    (fun (b : Rgnfile.Files.cfg_block) ->
      add_row buf
        [
          b.Rgnfile.Files.cb_proc;
          string_of_int b.Rgnfile.Files.cb_id;
          b.Rgnfile.Files.cb_label;
          String.concat ";" (List.map string_of_int b.Rgnfile.Files.cb_succs);
        ])
    blocks;
  Buffer.contents buf

let cfg_blocks cfgs =
  List.concat_map
    (fun (proc, cfg) ->
      Array.to_list
        (Array.map
           (fun (b : Cfg.block) ->
             {
               Rgnfile.Files.cb_proc = proc;
               cb_id = b.Cfg.id;
               cb_label = b.Cfg.label;
               cb_succs = b.Cfg.succs;
             })
           cfg.Cfg.blocks))
    cfgs

(* ------------------------------------------------------------------ *)
(* Reports *)

let add_quoted b s =
  Buffer.add_char b '"';
  Obs.Json.add_escaped b s;
  Buffer.add_char b '"'

let add_string_array b cells =
  Buffer.add_char b '[';
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ", ";
      add_quoted b c)
    cells;
  Buffer.add_char b ']'

let add_report b (t : Analyses.Report.t) =
  Buffer.add_string b "    {\n      \"analysis\": ";
  add_quoted b t.r_analysis;
  Buffer.add_string b ",\n      \"summary\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      add_quoted b k;
      Buffer.add_string b ": ";
      add_quoted b v)
    t.r_summary;
  Buffer.add_string b "},\n      \"columns\": ";
  add_string_array b t.r_columns;
  Buffer.add_string b ",\n      \"rows\": [";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n        ";
      add_string_array b row)
    t.r_rows;
  if t.r_rows <> [] then Buffer.add_string b "\n      ";
  Buffer.add_string b "]\n    }"

let json_of_reports reports =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema_version\": ";
  Buffer.add_string b (string_of_int Analyses.Report.schema_version);
  Buffer.add_string b ",\n  \"reports\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      add_report b r)
    reports;
  if reports <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

(* one string token and one cut per line *)
let render ppf (t : Analyses.Report.t) =
  Format.fprintf ppf "== analysis: %s ==@," t.r_analysis;
  let b = Buffer.create 256 in
  let emit () =
    Format.pp_print_string ppf (Buffer.contents b);
    Format.pp_print_cut ppf ();
    Buffer.clear b
  in
  if t.r_summary <> [] then begin
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b "  ";
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v)
      t.r_summary;
    emit ()
  end;
  if t.r_columns <> [] then begin
    let ncols = List.length t.r_columns in
    let widths = Array.make ncols 0 in
    let measure row =
      List.iteri
        (fun i c ->
          if i < ncols then widths.(i) <- max widths.(i) (String.length c))
        row
    in
    measure t.r_columns;
    List.iter measure t.r_rows;
    let line row =
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string b "  ";
          Buffer.add_string b c;
          if i < ncols - 1 then
            for _ = String.length c to widths.(i) - 1 do
              Buffer.add_char b ' '
            done)
        row;
      emit ()
    in
    line t.r_columns;
    List.iter line t.r_rows
  end

(* ------------------------------------------------------------------ *)
(* The .rgn rows of direct accesses, recomputing every column per access *)

let source_lows m pu st =
  match Ir.ty_of m pu st with
  | Symtab.Ty_array { dims; _ } ->
    let lows = List.map (fun (lo, _) -> Option.value lo ~default:0) dims in
    (match pu.Ir.pu_lang with
    | Lang.Ast.Fortran -> List.rev lows
    | Lang.Ast.C -> lows)
  | Symtab.Ty_scalar _ -> []

let bound_str lo = function
  | Region.Bconst x -> string_of_int (x + lo)
  | Region.Bsym e ->
    Format.asprintf "%a" Linear.Expr.pp
      (Linear.Expr.add_const (Numeric.Rat.of_int lo) e)
  | Region.Bunknown -> "*"

let stride_str = function
  | Region.Sconst s -> string_of_int s
  | Region.Sunknown -> "*"

let display_bounds m pu st region =
  let lows = source_lows m pu st in
  let dims = Region.dim_list region in
  let lows =
    if List.length lows = List.length dims then lows
    else List.map (fun _ -> 0) dims
  in
  ( String.concat "|" (List.map2 (fun lo d -> bound_str lo d.Region.lb) lows dims),
    String.concat "|" (List.map2 (fun lo d -> bound_str lo d.Region.ub) lows dims),
    String.concat "|" (List.map (fun d -> stride_str d.Region.stride) dims) )

let dim_size_str m pu st =
  Ipa.Collect.extents_of m pu st
  |> List.map (fun e -> string_of_int (Option.value e ~default:0))
  |> String.concat "|"

let rows (m : Ir.module_) (infos : (string * Ipa.Collect.pu_info) list) =
  let is_global = Ir.is_global_idx in
  let direct f =
    List.iter
      (fun (name, (info : Ipa.Collect.pu_info)) ->
        List.iter
          (fun (a : Ipa.Collect.access) ->
            if a.Ipa.Collect.ac_via = None then f name info.Ipa.Collect.p_pu a)
          info.Ipa.Collect.p_accesses)
      infos
  in
  let key name pu (a : Ipa.Collect.access) =
    let st = a.Ipa.Collect.ac_st in
    ( (if is_global st then "@" else name),
      Ir.st_name m pu st,
      Mode.to_string a.Ipa.Collect.ac_mode,
      pu.Ir.pu_object )
  in
  let counts = Hashtbl.create 64 in
  direct (fun name pu a ->
      let k = key name pu a in
      Hashtbl.replace counts k
        (1 + Option.value (Hashtbl.find_opt counts k) ~default:0));
  let rows = ref [] in
  direct (fun name pu a ->
      let st = a.Ipa.Collect.ac_st in
      let ((scope, arr, mode, _) as k) = key name pu a in
      let references = Hashtbl.find counts k in
      let entry = Ir.st_entry m pu st in
      let symtab = if is_global st then m.Ir.m_global else pu.Ir.pu_symtab in
      let ty = entry.Symtab.st_ty in
      let bytes = Symtab.size_bytes symtab ty in
      let lb, ub, stride = display_bounds m pu st a.Ipa.Collect.ac_region in
      rows :=
        {
          Rgnfile.Row.scope;
          array = arr;
          file = pu.Ir.pu_object;
          mode;
          references;
          dimensions = List.length (Ipa.Collect.extents_of m pu st);
          lb;
          ub;
          stride;
          element_size = Symtab.elem_size symtab ty;
          data_type = Lang.Ast.dtype_name (Symtab.dtype_of_ty symtab ty);
          dim_size = dim_size_str m pu st;
          tot_size = Symtab.total_elems symtab ty;
          size_bytes = bytes;
          mem_loc = Printf.sprintf "%x" entry.Symtab.st_mem_loc;
          acc_density = Rgnfile.Row.density ~references ~size_bytes:bytes;
          line = Lang.Loc.line a.Ipa.Collect.ac_loc;
          props =
            Lang.Iprop.flags_token (Region.assumed_flags a.Ipa.Collect.ac_region);
        }
        :: !rows);
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Lexers: the list-building tokenizers the array-backed streams of
   [Lang.Pstate] replaced, one spanned record (token and location) per
   token.  test_lang parses their tokens with the production parsers and
   checks that the ASTs and diagnostics equal the production lexers'. *)

type spanned = { tok : Lang.Token.t; loc : Lang.Loc.t }

module Token = Lang.Token
module Loc = Lang.Loc
module Diag = Lang.Diag

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

module Lexer_f = struct
  (* Dotted operator spellings and their canonical punctuation. *)
  let dotted_ops =
    [
      ("lt", "<"); ("le", "<="); ("gt", ">"); ("ge", ">=");
      ("eq", "=="); ("ne", "/=:"); ("and", "&&"); ("or", "||"); ("not", "!");
    ]

  let tokenize ~file src =
    let n = String.length src in
    let tokens = ref [] in
    let line = ref 1 and bol = ref 0 in
    let loc_at i = Loc.make ~file ~line:!line ~col:(i - !bol + 1) in
    let emit tok loc = tokens := { tok; loc } :: !tokens in
    let last_significant () =
      match !tokens with { tok; _ } :: _ -> Some tok | [] -> None
    in
    let i = ref 0 in
    (* comment line: 'c', 'C' or '*' in column 1 followed by blank/EOL *)
    let at_comment_line () =
      !i = !bol
      && !i < n
      && (match src.[!i] with
         | 'c' | 'C' | '*' ->
           !i + 1 >= n || src.[!i + 1] = ' ' || src.[!i + 1] = '\n'
             || src.[!i + 1] = '\t' || src.[!i + 1] = '\r'
         | _ -> false)
    in
    let skip_to_eol () =
      while !i < n && src.[!i] <> '\n' do incr i done
    in
    while !i < n do
      let c = src.[!i] in
      if at_comment_line () then skip_to_eol ()
      else
        match c with
        | ' ' | '\t' | '\r' -> incr i
        | '\n' ->
          (* collapse consecutive newlines; suppress newline after '&' *)
          (match last_significant () with
          | Some Token.Newline | None -> ()
          | Some _ -> emit Token.Newline (loc_at !i));
          incr i;
          incr line;
          bol := !i
        | '&' ->
          (* continuation: swallow to end of line including the newline *)
          incr i;
          skip_to_eol ();
          if !i < n then begin
            incr i;
            incr line;
            bol := !i
          end
        | '!' -> skip_to_eol ()
        | '\'' | '"' ->
          let quote = c in
          let start = !i in
          let buf = Buffer.create 16 in
          incr i;
          let rec scan () =
            if !i >= n then Diag.error (loc_at start) "unterminated string"
            else if src.[!i] = quote then
              if !i + 1 < n && src.[!i + 1] = quote then begin
                Buffer.add_char buf quote;
                i := !i + 2;
                scan ()
              end
              else incr i
            else begin
              Buffer.add_char buf src.[!i];
              incr i;
              scan ()
            end
          in
          scan ();
          emit (Token.String (Buffer.contents buf)) (loc_at start)
        | '.' when !i + 1 < n && is_alpha src.[!i + 1] ->
          (* dotted operator or logical literal *)
          let start = !i in
          let j = ref (!i + 1) in
          while !j < n && is_alpha src.[!j] do incr j done;
          if !j < n && src.[!j] = '.' then begin
            let word = String.lowercase_ascii (String.sub src (!i + 1) (!j - !i - 1)) in
            i := !j + 1;
            match word with
            | "true" -> emit (Token.Logic true) (loc_at start)
            | "false" -> emit (Token.Logic false) (loc_at start)
            | _ -> (
              match List.assoc_opt word dotted_ops with
              | Some p ->
                let p = if p = "/=:" then "!=" else p in
                emit (Token.Punct p) (loc_at start)
              | None -> Diag.error (loc_at start) "unknown operator .%s." word)
          end
          else Diag.error (loc_at start) "stray '.'"
        | c when is_digit c || (c = '.' && !i + 1 < n && is_digit src.[!i + 1]) ->
          let start = !i in
          while !i < n && is_digit src.[!i] do incr i done;
          let is_float = ref false in
          if
            !i < n && src.[!i] = '.'
            && not (!i + 1 < n && is_alpha src.[!i + 1])
            (* 1.lt.2 must not eat the dot *)
          then begin
            is_float := true;
            incr i;
            while !i < n && is_digit src.[!i] do incr i done
          end;
          (* exponent: e, d (double), with optional sign *)
          if
            !i < n
            && (match src.[!i] with 'e' | 'E' | 'd' | 'D' -> true | _ -> false)
            && (!i + 1 < n
               && (is_digit src.[!i + 1]
                  || ((src.[!i + 1] = '+' || src.[!i + 1] = '-')
                     && !i + 2 < n && is_digit src.[!i + 2])))
          then begin
            is_float := true;
            incr i;
            if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
            while !i < n && is_digit src.[!i] do incr i done
          end;
          let text = String.sub src start (!i - start) in
          if !is_float then
            let text =
              String.map (function 'd' | 'D' -> 'e' | c -> c) text
            in
            emit (Token.Float (float_of_string text)) (loc_at start)
          else emit (Token.Int (int_of_string text)) (loc_at start)
        | c when is_alpha c ->
          let start = !i in
          while !i < n && is_alnum src.[!i] do incr i done;
          let word = String.lowercase_ascii (String.sub src start (!i - start)) in
          emit (Token.Ident word) (loc_at start)
        | _ ->
          let start = !i in
          let two =
            if !i + 1 < n then String.sub src !i 2 else ""
          in
          let punct, len =
            match two with
            | "**" | "==" | "/=" | "<=" | ">=" | "::" -> (two, 2)
            | _ -> (String.make 1 c, 1)
          in
          let punct = if punct = "/=" then "!=" else punct in
          (match punct with
          | "+" | "-" | "*" | "/" | "(" | ")" | "," | "=" | ":" | "<" | ">"
          | "[" | "]" | "**" | "==" | "!=" | "<=" | ">=" | "::" ->
            i := !i + len;
            emit (Token.Punct punct) (loc_at start)
          | _ -> Diag.error (loc_at start) "unexpected character %C" c)
    done;
    (match last_significant () with
    | Some Token.Newline | None -> ()
    | Some _ -> emit Token.Newline (loc_at !i));
    emit Token.Eof (loc_at !i);
    List.rev !tokens
end

module Lexer_c = struct
  let two_char_puncts =
    [ "=="; "!="; "<="; ">="; "&&"; "||"; "++"; "--"; "+="; "-="; "*="; "/="; "%=" ]

  let one_char_puncts = "+-*/%<>=!(){}[];,&|#?:."

  let tokenize ~file src =
    let n = String.length src in
    let tokens = ref [] in
    let line = ref 1 and bol = ref 0 in
    let loc_at i = Loc.make ~file ~line:!line ~col:(i - !bol + 1) in
    let emit tok loc = tokens := { tok; loc } :: !tokens in
    let i = ref 0 in
    let in_directive = ref false in
    while !i < n do
      let c = src.[!i] in
      match c with
      | ' ' | '\t' | '\r' -> incr i
      | '\n' ->
        if !in_directive then begin
          emit Token.Newline (loc_at !i);
          in_directive := false
        end;
        incr i;
        incr line;
        bol := !i
      | '/' when !i + 1 < n && src.[!i + 1] = '/' ->
        while !i < n && src.[!i] <> '\n' do incr i done
      | '/' when !i + 1 < n && src.[!i + 1] = '*' ->
        let start = !i in
        i := !i + 2;
        let rec scan () =
          if !i + 1 >= n then Diag.error (loc_at start) "unterminated comment"
          else if src.[!i] = '*' && src.[!i + 1] = '/' then i := !i + 2
          else begin
            if src.[!i] = '\n' then begin
              incr line;
              bol := !i + 1
            end;
            incr i;
            scan ()
          end
        in
        scan ()
      | '"' ->
        let start = !i in
        let buf = Buffer.create 16 in
        incr i;
        let rec scan () =
          if !i >= n then Diag.error (loc_at start) "unterminated string"
          else if src.[!i] = '\\' && !i + 1 < n then begin
            (let c =
               match src.[!i + 1] with
               | 'n' -> '\n'
               | 't' -> '\t'
               | 'r' -> '\r'
               | '0' -> '\000'
               | c -> c
             in
             Buffer.add_char buf c);
            i := !i + 2;
            scan ()
          end
          else if src.[!i] = '"' then incr i
          else begin
            Buffer.add_char buf src.[!i];
            incr i;
            scan ()
          end
        in
        scan ();
        emit (Token.String (Buffer.contents buf)) (loc_at start)
      | '\'' ->
        let start = !i in
        incr i;
        if !i >= n then Diag.error (loc_at start) "unterminated character literal";
        let ch =
          if src.[!i] = '\\' && !i + 1 < n then begin
            i := !i + 2;
            match src.[!i - 1] with
            | 'n' -> '\n'
            | 't' -> '\t'
            | '0' -> '\000'
            | c -> c
          end
          else begin
            incr i;
            src.[!i - 1]
          end
        in
        if !i >= n || src.[!i] <> '\'' then
          Diag.error (loc_at start) "unterminated character literal";
        incr i;
        emit (Token.String (String.make 1 ch)) (loc_at start)
      | c when is_digit c ->
        let start = !i in
        while !i < n && is_digit src.[!i] do incr i done;
        let is_float = ref false in
        if !i < n && src.[!i] = '.' then begin
          is_float := true;
          incr i;
          while !i < n && is_digit src.[!i] do incr i done
        end;
        if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
          is_float := true;
          incr i;
          if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
          while !i < n && is_digit src.[!i] do incr i done
        end;
        (* suffixes f, l, u *)
        while
          !i < n
          && (match src.[!i] with 'f' | 'F' | 'l' | 'L' | 'u' | 'U' -> true | _ -> false)
        do
          incr i
        done;
        let text =
          String.sub src start (!i - start)
          |> String.to_seq
          |> Seq.filter (fun c ->
                 not (List.mem c [ 'f'; 'F'; 'l'; 'L'; 'u'; 'U' ]))
          |> String.of_seq
        in
        if !is_float then emit (Token.Float (float_of_string text)) (loc_at start)
        else emit (Token.Int (int_of_string text)) (loc_at start)
      | c when is_alpha c ->
        let start = !i in
        while !i < n && is_alnum src.[!i] do incr i done;
        emit (Token.Ident (String.sub src start (!i - start))) (loc_at start)
      | '#' ->
        in_directive := true;
        emit (Token.Punct "#") (loc_at !i);
        incr i
      | _ ->
        let start = !i in
        let two = if !i + 1 < n then String.sub src !i 2 else "" in
        if List.mem two two_char_puncts then begin
          i := !i + 2;
          emit (Token.Punct two) (loc_at start)
        end
        else if String.contains one_char_puncts c then begin
          incr i;
          emit (Token.Punct (String.make 1 c)) (loc_at start)
        end
        else Diag.error (loc_at start) "unexpected character %C" c
    done;
    if !in_directive then emit Token.Newline (loc_at !i);
    emit Token.Eof (loc_at !i);
    List.rev !tokens
end

(* a reference token list as a parser's stream *)
let stream ~file toks =
  Lang.Pstate.of_list ~file
    (List.map (fun s -> (s.tok, Loc.line s.loc, Loc.col s.loc)) toks)
