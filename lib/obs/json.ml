(* Recursive-descent JSON reader over a string, reporting byte offsets on
   error.  String escapes follow RFC 8259: only the nine escape characters
   are accepted, and \uXXXX decodes to the UTF-8 encoding of the code
   point — surrogate pairs (a \uD800-\uDBFF escape immediately followed by
   a \uDC00-\uDFFF escape) combine into one supplementary-plane character;
   a lone or misordered surrogate is a parse error, not a silent byte. *)

type t =
  | Obj of (string * t) list
  | List of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Fail of string * int

let parse s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Fail (msg, !pos)) in
  let peek () = if !pos >= len then '\000' else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c)
    else advance ()
  in
  let literal word v =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      v
    end
    else fail "bad literal"
  in
  (* exactly four hex digits after a \u; int_of_string would also accept
     forms like "0x1_2" or a leading sign, so the digits are checked
     explicitly *)
  let read_hex4 () =
    if !pos + 4 > len then fail "bad \\u escape";
    let v = ref 0 in
    for k = 0 to 3 do
      let d =
        match s.[!pos + k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d
    done;
    pos := !pos + 4;
    !v
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    skip_ws ();
    if peek () <> '"' then fail "expected string";
    advance ();
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '\000' -> fail "unterminated string"
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '\000' -> fail "bad escape"
        | '"' ->
          Buffer.add_char b '"';
          advance ()
        | '\\' ->
          Buffer.add_char b '\\';
          advance ()
        | '/' ->
          Buffer.add_char b '/';
          advance ()
        | 'b' ->
          Buffer.add_char b '\b';
          advance ()
        | 'f' ->
          Buffer.add_char b '\012';
          advance ()
        | 'n' ->
          Buffer.add_char b '\n';
          advance ()
        | 't' ->
          Buffer.add_char b '\t';
          advance ()
        | 'r' ->
          Buffer.add_char b '\r';
          advance ()
        | 'u' ->
          advance ();
          let code = read_hex4 () in
          if code >= 0xD800 && code <= 0xDBFF then begin
            (* high surrogate: the low half must follow as another escape *)
            if
              not
                (!pos + 2 <= len && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
            then fail "lone high surrogate";
            pos := !pos + 2;
            let low = read_hex4 () in
            if not (low >= 0xDC00 && low <= 0xDFFF) then
              fail "bad low surrogate";
            add_utf8 b
              (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
          end
          else if code >= 0xDC00 && code <= 0xDFFF then
            fail "lone low surrogate"
          else add_utf8 b code
        | _ -> fail "bad escape character");
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((k, v) :: acc)
          | '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            items (v :: acc)
          | ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | c when is_num_char c ->
      let start = !pos in
      while is_num_char (peek ()) do
        advance ()
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number")
    | _ -> fail "unexpected character"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (msg, off) ->
    Error (Printf.sprintf "%s at offset %d" msg off)

let parse_file path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | s -> parse s
  | exception Sys_error e -> Error e

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let hex = "0123456789abcdef"

let add_escaped b s =
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b hex.[Char.code c lsr 4];
          Buffer.add_char b hex.[Char.code c land 15]
        | c -> Buffer.add_char b c)
      s

let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    add_escaped b s;
    Buffer.contents b
  end

let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then
    let s = Printf.sprintf "%.15g" f in
    Buffer.add_string b
      (if float_of_string s = f then s else Printf.sprintf "%.17g" f)
  else Buffer.add_string b "null"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> add_num b f
  | Str s ->
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        write b (Str k);
        Buffer.add_char b ':';
        write b v)
      kvs;
    Buffer.add_char b '}'

let render v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b
