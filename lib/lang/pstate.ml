(* Token [i] is [toks.(i)], starting at line [lcs.(2i)], column
   [lcs.(2i+1)]; only the first [n] slots are the stream's. *)
type arrays = {
  mutable toks : Token.t array;
  mutable lcs : int array;
  mutable n : int;
}

type t = { file : string; a : arrays; mutable pos : int }

let arrays size =
  { toks = Array.make size Token.Eof; lcs = Array.make (2 * size) 0; n = 0 }
let per_domain = Domain.DLS.new_key (fun () -> arrays 1024)

let lexing ~file =
  let a = Domain.DLS.get per_domain in
  a.n <- 0;
  { file; a; pos = 0 }

let push t tok ~line ~col =
  let a = t.a in
  let n = a.n in
  if n = Array.length a.toks then begin
    let toks = Array.make (2 * n) Token.Eof and lcs = Array.make (4 * n) 0 in
    Array.blit a.toks 0 toks 0 n;
    Array.blit a.lcs 0 lcs 0 (2 * n);
    a.toks <- toks;
    a.lcs <- lcs
  end;
  a.toks.(n) <- tok;
  a.lcs.(2 * n) <- line;
  a.lcs.((2 * n) + 1) <- col;
  a.n <- n + 1

let of_list ~file toks =
  let t = { file; a = arrays (max 1 (List.length toks)); pos = 0 } in
  List.iter (fun (tok, line, col) -> push t tok ~line ~col) toks;
  t

let nth t k =
  let i = t.pos + k in
  if i < t.a.n then t.a.toks.(i) else Token.Eof

let peek t = nth t 0
let peek2 t = nth t 1

let loc t =
  let i = t.pos in
  if i < t.a.n then
    Loc.make ~file:t.file ~line:t.a.lcs.(2 * i) ~col:t.a.lcs.((2 * i) + 1)
  else Loc.dummy

let next t =
  let tok = peek t in
  if t.pos < t.a.n then t.pos <- t.pos + 1;
  tok

let skip t = if t.pos < t.a.n then t.pos <- t.pos + 1

let accept t tok =
  if Token.equal (peek t) tok then begin
    skip t;
    true
  end
  else false

let error t fmt = Diag.error (loc t) fmt

let expect t tok =
  if not (accept t tok) then
    error t "expected %s but found %s" (Token.to_string tok)
      (Token.to_string (peek t))

let expect_ident t =
  match peek t with
  | Token.Ident s ->
    skip t;
    s
  | other -> error t "expected identifier but found %s" (Token.to_string other)
