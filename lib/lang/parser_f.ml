open Ast

let kw p word =
  match Pstate.peek p with
  | Token.Ident s when String.equal s word -> true
  | _ -> false

let accept_kw p word =
  if kw p word then begin
    Pstate.skip p;
    true
  end
  else false

let expect_kw p word =
  if not (accept_kw p word) then
    Pstate.error p "expected keyword %S but found %s" word
      (Token.to_string (Pstate.peek p))

let skip_newlines p =
  while Pstate.accept p Token.Newline do () done

let expect_eos p =
  (* end of statement *)
  match Pstate.peek p with
  | Token.Newline -> skip_newlines p
  | Token.Eof -> ()
  | other -> Pstate.error p "expected end of statement, found %s" (Token.to_string other)

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec parse_expr p = parse_or p

and parse_or p =
  let rec loop acc =
    if Pstate.accept p (Token.Punct "||") then
      loop (Binop (Or, acc, parse_and p))
    else acc
  in
  loop (parse_and p)

and parse_and p =
  let rec loop acc =
    if Pstate.accept p (Token.Punct "&&") then
      loop (Binop (And, acc, parse_not p))
    else acc
  in
  loop (parse_not p)

and parse_not p =
  if Pstate.accept p (Token.Punct "!") then Unop (Not, parse_not p)
  else parse_cmp p

and parse_cmp p =
  let lhs = parse_add p in
  let op =
    match Pstate.peek p with
    | Token.Punct "==" -> Some Eq
    | Token.Punct "!=" -> Some Ne
    | Token.Punct "<" -> Some Lt
    | Token.Punct "<=" -> Some Le
    | Token.Punct ">" -> Some Gt
    | Token.Punct ">=" -> Some Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    Pstate.skip p;
    Binop (op, lhs, parse_add p)

and parse_add p =
  let first =
    if Pstate.accept p (Token.Punct "-") then Unop (Neg, parse_mul p)
    else begin
      ignore (Pstate.accept p (Token.Punct "+"));
      parse_mul p
    end
  in
  let rec loop acc =
    if Pstate.accept p (Token.Punct "+") then
      loop (Binop (Add, acc, parse_mul p))
    else if Pstate.accept p (Token.Punct "-") then
      loop (Binop (Sub, acc, parse_mul p))
    else acc
  in
  loop first

and parse_mul p =
  let rec loop acc =
    if Pstate.accept p (Token.Punct "*") then
      loop (Binop (Mul, acc, parse_unary p))
    else if Pstate.accept p (Token.Punct "/") then
      loop (Binop (Div, acc, parse_unary p))
    else acc
  in
  loop (parse_unary p)

and parse_unary p =
  if Pstate.accept p (Token.Punct "-") then Unop (Neg, parse_unary p)
  else parse_power p

and parse_power p =
  let base = parse_primary p in
  if Pstate.accept p (Token.Punct "**") then Binop (Pow, base, parse_unary p)
  else base

and parse_primary p =
  match Pstate.peek p with
  | Token.Int n ->
    Pstate.skip p;
    Int_lit n
  | Token.Float f ->
    Pstate.skip p;
    Real_lit f
  | Token.String s ->
    Pstate.skip p;
    Str_lit s
  | Token.Logic b ->
    Pstate.skip p;
    Logic_lit b
  | Token.Punct "(" ->
    Pstate.skip p;
    let e = parse_expr p in
    Pstate.expect p (Token.Punct ")");
    e
  | Token.Ident name ->
    let loc = Pstate.loc p in
    Pstate.skip p;
    if Pstate.accept p (Token.Punct "(") then begin
      let args = parse_expr_list p in
      Pstate.expect p (Token.Punct ")");
      if Pstate.accept p (Token.Punct "[") then begin
        (* coarray remote reference: x(i, j)[img] *)
        let img = parse_expr p in
        Pstate.expect p (Token.Punct "]");
        Coarray_ref (name, args, img, loc)
      end
      else
        (* array reference or function call: Sema decides *)
        Array_ref (name, args, loc)
    end
    else Var_ref (name, loc)
  | other -> Pstate.error p "expected expression, found %s" (Token.to_string other)

and parse_expr_list p =
  if Token.equal (Pstate.peek p) (Token.Punct ")") then []
  else
    let rec loop acc =
      let e = parse_expr p in
      if Pstate.accept p (Token.Punct ",") then loop (e :: acc)
      else List.rev (e :: acc)
    in
    loop []

(* ------------------------------------------------------------------ *)
(* Declarations *)

let is_type_start p =
  kw p "integer" || kw p "real" || kw p "double" || kw p "character"
  || kw p "logical"

let parse_dtype p =
  if accept_kw p "integer" then Int_t
  else if accept_kw p "real" then Real_t
  else if accept_kw p "double" then begin
    expect_kw p "precision";
    Double_t
  end
  else if accept_kw p "character" then Char_t
  else if accept_kw p "logical" then Logical_t
  else Pstate.error p "expected a type keyword"

(* one dimension spec: [e], [e1:e2], [*], [e1:*], or the F90 assumed-shape
   [:] (deferred bounds, possibly non-contiguous) *)
let parse_dim p =
  if Pstate.accept p (Token.Punct "*") then
    { dim_lo = Int_lit 1; dim_hi = None; dim_assumed_shape = false }
  else if Pstate.accept p (Token.Punct ":") then
    { dim_lo = Int_lit 1; dim_hi = None; dim_assumed_shape = true }
  else
    let e1 = parse_expr p in
    if Pstate.accept p (Token.Punct ":") then
      if Pstate.accept p (Token.Punct "*") then
        { dim_lo = e1; dim_hi = None; dim_assumed_shape = false }
      else
        { dim_lo = e1; dim_hi = Some (parse_expr p); dim_assumed_shape = false }
    else { dim_lo = Int_lit 1; dim_hi = Some e1; dim_assumed_shape = false }

let parse_dims p =
  Pstate.expect p (Token.Punct "(");
  let rec loop acc =
    let d = parse_dim p in
    if Pstate.accept p (Token.Punct ",") then loop (d :: acc)
    else begin
      Pstate.expect p (Token.Punct ")");
      List.rev (d :: acc)
    end
  in
  loop []

(* [integer a, b(5)], [integer, dimension(1:200,1:200) :: a, b],
   [double precision u(5,65,65,64)] *)
let parse_type_decl p =
  let dtype = parse_dtype p in
  let attr_dims =
    if Pstate.accept p (Token.Punct ",") then begin
      expect_kw p "dimension";
      (* the paper's Fig 1 writes "Integer, Dimension:: A(1:200,1:200)":
         the parenthesized shape on the attribute is optional *)
      if Token.equal (Pstate.peek p) (Token.Punct "(") then Some (parse_dims p)
      else None
    end
    else None
  in
  ignore (Pstate.accept p (Token.Punct "::"));
  let rec names acc =
    let nloc = Pstate.loc p in
    let name = Pstate.expect_ident p in
    let dims =
      if Token.equal (Pstate.peek p) (Token.Punct "(") then parse_dims p
      else match attr_dims with Some d -> d | None -> []
    in
    (* codimension: x(10)[*] declares a coarray *)
    let coarray =
      if Pstate.accept p (Token.Punct "[") then begin
        Pstate.expect p (Token.Punct "*");
        Pstate.expect p (Token.Punct "]");
        true
      end
      else false
    in
    let d =
      {
        decl_name = name;
        decl_type = dtype;
        decl_dims = dims;
        decl_common = None;
        decl_coarray = coarray;
        decl_loc = nloc;
      }
    in
    if Pstate.accept p (Token.Punct ",") then
      names (d :: acc) else List.rev (d :: acc)
  in
  names []

(* [common /blk/ a, b] returns (block, names) *)
let parse_common p =
  expect_kw p "common";
  Pstate.expect p (Token.Punct "/");
  let block = Pstate.expect_ident p in
  Pstate.expect p (Token.Punct "/");
  let rec loop acc =
    let n = Pstate.expect_ident p in
    if Pstate.accept p (Token.Punct ",") then
      loop (n :: acc) else List.rev (n :: acc)
  in
  (block, loop [])

(* [parameter (n = 5, m = n + 1)] *)
let parse_parameter p =
  expect_kw p "parameter";
  Pstate.expect p (Token.Punct "(");
  let rec loop acc =
    let n = Pstate.expect_ident p in
    Pstate.expect p (Token.Punct "=");
    let e = parse_expr p in
    if Pstate.accept p (Token.Punct ",") then loop ((n, e) :: acc)
    else begin
      Pstate.expect p (Token.Punct ")");
      List.rev ((n, e) :: acc)
    end
  in
  loop []

(* [dimension a(10), b(2:5)] *)
let parse_dimension_stmt p =
  expect_kw p "dimension";
  let rec loop acc =
    let nloc = Pstate.loc p in
    let name = Pstate.expect_ident p in
    let dims = parse_dims p in
    let entry = (name, dims, nloc) in
    if Pstate.accept p (Token.Punct ",") then loop (entry :: acc)
    else List.rev (entry :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec parse_stmt p : stmt =
  let loc = Pstate.loc p in
  if accept_kw p "call" then begin
    let name = Pstate.expect_ident p in
    let args =
      if Pstate.accept p (Token.Punct "(") then begin
        let a = parse_expr_list p in
        Pstate.expect p (Token.Punct ")");
        a
      end
      else []
    in
    expect_eos p;
    Call (name, args, loc)
  end
  else if accept_kw p "return" then begin
    expect_eos p;
    Return (None, loc)
  end
  else if accept_kw p "continue" || accept_kw p "stop" then begin
    expect_eos p;
    Nop loc
  end
  else if accept_kw p "print" then begin
    Pstate.expect p (Token.Punct "*");
    let args =
      if Pstate.accept p (Token.Punct ",") then
        let rec loop acc =
          let e = parse_expr p in
          if Pstate.accept p (Token.Punct ",") then loop (e :: acc)
          else List.rev (e :: acc)
        in
        loop []
      else []
    in
    expect_eos p;
    Print (args, loc)
  end
  else if accept_kw p "write" then begin
    (* write (*, *) list  -- list-directed output, same as print *)
    Pstate.expect p (Token.Punct "(");
    Pstate.expect p (Token.Punct "*");
    Pstate.expect p (Token.Punct ",");
    Pstate.expect p (Token.Punct "*");
    Pstate.expect p (Token.Punct ")");
    let args =
      match Pstate.peek p with
      | Token.Newline | Token.Eof -> []
      | _ ->
        let rec loop acc =
          let e = parse_expr p in
          if Pstate.accept p (Token.Punct ",") then loop (e :: acc)
          else List.rev (e :: acc)
        in
        loop []
    in
    expect_eos p;
    Print (args, loc)
  end
  else if kw p "if" then parse_if p
  else if kw p "do" then parse_do p
  else begin
    (* assignment *)
    let nloc = Pstate.loc p in
    let name = Pstate.expect_ident p in
    let lv =
      if Token.equal (Pstate.peek p) (Token.Punct "(") then begin
        Pstate.skip p;
        let idx = parse_expr_list p in
        Pstate.expect p (Token.Punct ")");
        if Pstate.accept p (Token.Punct "[") then begin
          let img = parse_expr p in
          Pstate.expect p (Token.Punct "]");
          Lcoarr (name, idx, img, nloc)
        end
        else Larr (name, idx, nloc)
      end
      else Lvar (name, nloc)
    in
    Pstate.expect p (Token.Punct "=");
    let e = parse_expr p in
    expect_eos p;
    Assign (lv, e, loc)
  end

and parse_if p =
  let loc = Pstate.loc p in
  expect_kw p "if";
  Pstate.expect p (Token.Punct "(");
  let cond = parse_expr p in
  Pstate.expect p (Token.Punct ")");
  if accept_kw p "then" then begin
    expect_eos p;
    let then_body = parse_body p [ "else"; "elseif"; "endif"; "end" ] in
    parse_if_tail p loc cond then_body
  end
  else
    (* logical (one-line) if *)
    let s = parse_stmt p in
    If (cond, [ s ], [], loc)

and parse_if_tail p loc cond then_body =
  if accept_kw p "elseif" then begin
    (* elseif (cond) then *)
    Pstate.expect p (Token.Punct "(");
    let cond2 = parse_expr p in
    Pstate.expect p (Token.Punct ")");
    expect_kw p "then";
    expect_eos p;
    let body2 = parse_body p [ "else"; "elseif"; "endif"; "end" ] in
    let inner = parse_if_tail p loc cond2 body2 in
    If (cond, then_body, [ inner ], loc)
  end
  else if accept_kw p "else" then
    if accept_kw p "if" then begin
      Pstate.expect p (Token.Punct "(");
      let cond2 = parse_expr p in
      Pstate.expect p (Token.Punct ")");
      expect_kw p "then";
      expect_eos p;
      let body2 = parse_body p [ "else"; "elseif"; "endif"; "end" ] in
      let inner = parse_if_tail p loc cond2 body2 in
      If (cond, then_body, [ inner ], loc)
    end
    else begin
      expect_eos p;
      let else_body = parse_body p [ "endif"; "end" ] in
      close_if p;
      If (cond, then_body, else_body, loc)
    end
  else begin
    close_if p;
    If (cond, then_body, [], loc)
  end

and close_if p =
  if accept_kw p "endif" then expect_eos p
  else begin
    expect_kw p "end";
    expect_kw p "if";
    expect_eos p
  end

and parse_do p =
  let loc = Pstate.loc p in
  expect_kw p "do";
  if accept_kw p "while" then begin
    Pstate.expect p (Token.Punct "(");
    let cond = parse_expr p in
    Pstate.expect p (Token.Punct ")");
    expect_eos p;
    let body = parse_body p [ "enddo"; "end" ] in
    close_do p;
    While (cond, body, loc)
  end
  else begin
    let var = Pstate.expect_ident p in
    Pstate.expect p (Token.Punct "=");
    let lo = parse_expr p in
    Pstate.expect p (Token.Punct ",");
    let hi = parse_expr p in
    let step =
      if Pstate.accept p (Token.Punct ",") then Some (parse_expr p) else None
    in
    expect_eos p;
    let body = parse_body p [ "enddo"; "end" ] in
    close_do p;
    Do { do_var = var; do_lo = lo; do_hi = hi; do_step = step; do_body = body; do_loc = loc }
  end

and close_do p =
  if accept_kw p "enddo" then expect_eos p
  else begin
    expect_kw p "end";
    expect_kw p "do";
    expect_eos p
  end

(* Parses statements until one of the terminator keywords is next.  "end" is
   ambiguous (end if / end do / end of unit): callers must only pass "end"
   when the construct closes with [end <kw>] and the body cannot itself end
   the unit, which holds in MiniF because nesting is closed innermost-first. *)
and parse_body p terminators =
  skip_newlines p;
  let rec loop acc =
    if Token.equal (Pstate.peek p) Token.Eof then List.rev acc
    else if
      match Pstate.peek p with
      | Token.Ident s -> List.mem s terminators
      | _ -> false
    then List.rev acc
    else begin
      let s = parse_stmt p in
      skip_newlines p;
      loop (s :: acc)
    end
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Procedures and units *)

type decl_acc = {
  mutable decls : decl list;
  mutable consts : (string * expr) list;
  mutable commons : (string * string) list;  (* name -> block *)
  mutable dim_stmts : (string * dim list * Loc.t) list;
}

let finalize_decls acc =
  (* apply DIMENSION statements and COMMON membership *)
  let with_dims =
    List.map
      (fun d ->
        match
          List.find_opt (fun (n, _, _) -> String.equal n d.decl_name) acc.dim_stmts
        with
        | Some (_, dims, _) when d.decl_dims = [] -> { d with decl_dims = dims }
        | _ -> d)
      acc.decls
  in
  (* DIMENSION of names never typed: implicit typing (i-n integer, else real) *)
  let untyped =
    List.filter
      (fun (n, _, _) ->
        not (List.exists (fun d -> String.equal d.decl_name n) acc.decls))
      acc.dim_stmts
  in
  let implicit =
    List.map
      (fun (n, dims, loc) ->
        let dtype =
          if String.length n > 0 && n.[0] >= 'i' && n.[0] <= 'n' then Int_t
          else Real_t
        in
        {
          decl_name = n;
          decl_type = dtype;
          decl_dims = dims;
          decl_common = None;
          decl_coarray = false;
          decl_loc = loc;
        })
      untyped
  in
  List.map
    (fun d ->
      match List.assoc_opt d.decl_name acc.commons with
      | Some block -> { d with decl_common = Some block }
      | None -> d)
    (with_dims @ implicit)

let parse_proc_header p =
  let loc = Pstate.loc p in
  let kind, name =
    if accept_kw p "program" then (Program, Pstate.expect_ident p)
    else if accept_kw p "subroutine" then (Subroutine, Pstate.expect_ident p)
    else begin
      let dtype = parse_dtype p in
      expect_kw p "function";
      (Function dtype, Pstate.expect_ident p)
    end
  in
  let params =
    if Pstate.accept p (Token.Punct "(") then begin
      if Pstate.accept p (Token.Punct ")") then []
      else
        let rec loop acc =
          let n = Pstate.expect_ident p in
          if Pstate.accept p (Token.Punct ",") then loop (n :: acc)
          else begin
            Pstate.expect p (Token.Punct ")");
            List.rev (n :: acc)
          end
        in
        loop []
    end
    else []
  in
  expect_eos p;
  (kind, name, params, loc)

(* True when the cursor sits on "end" closing the unit: end [subroutine|
   function|program] possibly followed by a name, then EOL. *)
let at_unit_end p =
  kw p "end"
  && (match Pstate.peek2 p with
     | Token.Newline | Token.Eof -> true
     | Token.Ident ("subroutine" | "function" | "program") -> true
     | _ -> false)

let parse_proc p =
  let kind, name, params, loc = parse_proc_header p in
  let acc = { decls = []; consts = []; commons = []; dim_stmts = [] } in
  skip_newlines p;
  (* declaration section *)
  let rec decl_loop () =
    if is_type_start p && not (Token.equal (Pstate.peek2 p) (Token.Punct "=")) then begin
      (* "double precision function" never appears here: headers are done *)
      acc.decls <- acc.decls @ parse_type_decl p;
      expect_eos p;
      decl_loop ()
    end
    else if kw p "common" then begin
      let block, names = parse_common p in
      acc.commons <- acc.commons @ List.map (fun n -> (n, block)) names;
      expect_eos p;
      decl_loop ()
    end
    else if kw p "parameter" then begin
      acc.consts <- acc.consts @ parse_parameter p;
      expect_eos p;
      decl_loop ()
    end
    else if kw p "dimension" then begin
      acc.dim_stmts <- acc.dim_stmts @ parse_dimension_stmt p;
      expect_eos p;
      decl_loop ()
    end
    else if accept_kw p "implicit" then begin
      (* implicit none: accepted and ignored *)
      ignore (accept_kw p "none");
      expect_eos p;
      decl_loop ()
    end
  in
  decl_loop ();
  (* body *)
  let rec body_loop acc_stmts =
    skip_newlines p;
    if at_unit_end p then List.rev acc_stmts
    else if Token.equal (Pstate.peek p) Token.Eof then
      Pstate.error p "missing 'end' for %s" name
    else begin
      let s = parse_stmt p in
      body_loop (s :: acc_stmts)
    end
  in
  let body = body_loop [] in
  expect_kw p "end";
  (match Pstate.peek p with
  | Token.Ident ("subroutine" | "function" | "program") ->
    Pstate.skip p;
    (match Pstate.peek p with Token.Ident _ -> Pstate.skip p | _ -> ())
  | _ -> ());
  expect_eos p;
  {
    proc_name = name;
    proc_kind = kind;
    proc_params = params;
    proc_decls = finalize_decls acc;
    proc_consts = acc.consts;
    proc_body = body;
    proc_loc = loc;
  }

let parse_tokens ~file src p =
  skip_newlines p;
  let rec loop procs =
    skip_newlines p;
    if Token.equal (Pstate.peek p) Token.Eof then List.rev procs
    else loop (parse_proc p :: procs)
  in
  let procs = loop [] in
  {
    unit_file = file;
    unit_language = Fortran;
    unit_globals = [];
    unit_consts = [];
    unit_procs = procs;
    unit_iprops = Iprop.scan ~fortran:true src;
  }

let parse ~file src = parse_tokens ~file src (Lexer_f.tokenize ~file src)
