let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* [src.[start .. start+len-1]], lowercased, in one allocation *)
let lower_sub src start len =
  let b = Bytes.create len in
  for k = 0 to len - 1 do
    Bytes.unsafe_set b k
      (Char.lowercase_ascii (String.unsafe_get src (start + k)))
  done;
  Bytes.unsafe_to_string b

(* Every punctuation token is one of these constants: lexing one allocates
   nothing.  [Token.Eof] stands for "not punctuation". *)
let punct1 = function
  | '+' -> Token.Punct "+"
  | '-' -> Token.Punct "-"
  | '*' -> Token.Punct "*"
  | '/' -> Token.Punct "/"
  | '(' -> Token.Punct "("
  | ')' -> Token.Punct ")"
  | ',' -> Token.Punct ","
  | '=' -> Token.Punct "="
  | ':' -> Token.Punct ":"
  | '<' -> Token.Punct "<"
  | '>' -> Token.Punct ">"
  | '[' -> Token.Punct "["
  | ']' -> Token.Punct "]"
  | _ -> Token.Eof

let punct2 c1 c2 =
  match c1, c2 with
  | '*', '*' -> Token.Punct "**"
  | '=', '=' -> Token.Punct "=="
  | '/', '=' -> Token.Punct "!="
  | '<', '=' -> Token.Punct "<="
  | '>', '=' -> Token.Punct ">="
  | ':', ':' -> Token.Punct "::"
  | _ -> Token.Eof

(* Dotted operator spellings and their canonical punctuation. *)
let dotted_op = function
  | "lt" -> Token.Punct "<"
  | "le" -> Token.Punct "<="
  | "gt" -> Token.Punct ">"
  | "ge" -> Token.Punct ">="
  | "eq" -> Token.Punct "=="
  | "ne" -> Token.Punct "!="
  | "and" -> Token.Punct "&&"
  | "or" -> Token.Punct "||"
  | "not" -> Token.Punct "!"
  | "true" -> Token.Logic true
  | "false" -> Token.Logic false
  | _ -> Token.Eof

let tokenize ~file src =
  let n = String.length src in
  let ts = Pstate.lexing ~file in
  let line = ref 1 and bol = ref 0 in
  let loc_at i = Loc.make ~file ~line:!line ~col:(i - !bol + 1) in
  (* true before the first token and right after a Newline *)
  let at_newline = ref true in
  let emit tok i =
    Pstate.push ts tok ~line:!line ~col:(i - !bol + 1);
    at_newline := false
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
  let newline () =
    if not !at_newline then begin
      emit Token.Newline !i;
      at_newline := true
    end
  in
  while !i < n do
    let c = src.[!i] in
    if at_comment_line () then skip_to_eol ()
    else
      match c with
      | ' ' | '\t' | '\r' -> incr i
      | '\n' ->
        (* collapse consecutive newlines; suppress newline after '&' *)
        newline ();
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
        emit (Token.String (Buffer.contents buf)) start
      | '.' when !i + 1 < n && is_alpha src.[!i + 1] ->
        (* dotted operator or logical literal *)
        let start = !i in
        let j = ref (!i + 1) in
        while !j < n && is_alpha src.[!j] do incr j done;
        if !j < n && src.[!j] = '.' then begin
          let word = lower_sub src (!i + 1) (!j - !i - 1) in
          i := !j + 1;
          match dotted_op word with
          | Token.Eof -> Diag.error (loc_at start) "unknown operator .%s." word
          | tok -> emit tok start
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
          emit (Token.Float (float_of_string text)) start
        else emit (Token.Int (int_of_string text)) start
      | c when is_alpha c ->
        let start = !i in
        while !i < n && is_alnum src.[!i] do incr i done;
        emit (Token.Ident (lower_sub src start (!i - start))) start
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
  newline ();
  emit Token.Eof !i;
  ts
