let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* Every punctuation token is one of these constants: lexing one allocates
   nothing.  [Token.Eof] stands for "not punctuation". *)
let punct2 c1 c2 =
  match c1, c2 with
  | '=', '=' -> Token.Punct "=="
  | '!', '=' -> Token.Punct "!="
  | '<', '=' -> Token.Punct "<="
  | '>', '=' -> Token.Punct ">="
  | '&', '&' -> Token.Punct "&&"
  | '|', '|' -> Token.Punct "||"
  | '+', '+' -> Token.Punct "++"
  | '-', '-' -> Token.Punct "--"
  | '+', '=' -> Token.Punct "+="
  | '-', '=' -> Token.Punct "-="
  | '*', '=' -> Token.Punct "*="
  | '/', '=' -> Token.Punct "/="
  | '%', '=' -> Token.Punct "%="
  | _ -> Token.Eof

let punct1 = function
  | '+' -> Token.Punct "+"
  | '-' -> Token.Punct "-"
  | '*' -> Token.Punct "*"
  | '/' -> Token.Punct "/"
  | '%' -> Token.Punct "%"
  | '<' -> Token.Punct "<"
  | '>' -> Token.Punct ">"
  | '=' -> Token.Punct "="
  | '!' -> Token.Punct "!"
  | '(' -> Token.Punct "("
  | ')' -> Token.Punct ")"
  | '{' -> Token.Punct "{"
  | '}' -> Token.Punct "}"
  | '[' -> Token.Punct "["
  | ']' -> Token.Punct "]"
  | ';' -> Token.Punct ";"
  | ',' -> Token.Punct ","
  | '&' -> Token.Punct "&"
  | '|' -> Token.Punct "|"
  | '#' -> Token.Punct "#"
  | '?' -> Token.Punct "?"
  | ':' -> Token.Punct ":"
  | '.' -> Token.Punct "."
  | _ -> Token.Eof

let tokenize ~file src =
  let n = String.length src in
  let ts = Pstate.lexing ~file in
  let line = ref 1 and bol = ref 0 in
  let loc_at i = Loc.make ~file ~line:!line ~col:(i - !bol + 1) in
  let emit tok i = Pstate.push ts tok ~line:!line ~col:(i - !bol + 1) in
  let i = ref 0 in
  let in_directive = ref false in
  while !i < n do
    let c = src.[!i] in
    match c with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' ->
      if !in_directive then begin
        emit Token.Newline !i;
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
      emit (Token.String (Buffer.contents buf)) start
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
      emit (Token.String (String.make 1 ch)) start
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
      (* the number ends here; suffixes f, l, u follow it *)
      let text = String.sub src start (!i - start) in
      while
        !i < n
        && (match src.[!i] with 'f' | 'F' | 'l' | 'L' | 'u' | 'U' -> true | _ -> false)
      do
        incr i
      done;
      if !is_float then emit (Token.Float (float_of_string text)) start
      else emit (Token.Int (int_of_string text)) start
    | c when is_alpha c ->
      let start = !i in
      while !i < n && is_alnum src.[!i] do incr i done;
      emit (Token.Ident (String.sub src start (!i - start))) start
    | '#' ->
      in_directive := true;
      emit (Token.Punct "#") !i;
      incr i
    | _ ->
      let start = !i in
      let two = if !i + 1 < n then punct2 c src.[!i + 1] else Token.Eof in
      if two != Token.Eof then begin
        i := !i + 2;
        emit two start
      end
      else begin
        match punct1 c with
        | Token.Eof -> Diag.error (loc_at start) "unexpected character %C" c
        | p ->
          incr i;
          emit p start
      end
  done;
  if !in_directive then emit Token.Newline !i;
  emit Token.Eof !i;
  ts
