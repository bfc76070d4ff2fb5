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

let is_type_kw = function
  | "int" | "float" | "double" | "char" | "void" -> true
  | _ -> false

let dtype_of_kw p = function
  | "int" -> Some Int_t
  | "float" -> Some Real_t
  | "double" -> Some Double_t
  | "char" -> Some Char_t
  | "void" -> None
  | other -> Pstate.error p "unknown type %S" other

(* ------------------------------------------------------------------ *)
(* Expressions (C precedence, subset) *)

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
      loop (Binop (And, acc, parse_eq p))
    else acc
  in
  loop (parse_eq p)

and parse_eq p =
  let rec loop acc =
    if Pstate.accept p (Token.Punct "==") then
      loop (Binop (Eq, acc, parse_rel p))
    else if Pstate.accept p (Token.Punct "!=") then
      loop (Binop (Ne, acc, parse_rel p))
    else acc
  in
  loop (parse_rel p)

and parse_rel p =
  let rec loop acc =
    match Pstate.peek p with
    | Token.Punct "<" ->
      Pstate.skip p;
      loop (Binop (Lt, acc, parse_add p))
    | Token.Punct "<=" ->
      Pstate.skip p;
      loop (Binop (Le, acc, parse_add p))
    | Token.Punct ">" ->
      Pstate.skip p;
      loop (Binop (Gt, acc, parse_add p))
    | Token.Punct ">=" ->
      Pstate.skip p;
      loop (Binop (Ge, acc, parse_add p))
    | _ -> acc
  in
  loop (parse_add p)

and parse_add p =
  let rec loop acc =
    if Pstate.accept p (Token.Punct "+") then
      loop (Binop (Add, acc, parse_mul p))
    else if Pstate.accept p (Token.Punct "-") then
      loop (Binop (Sub, acc, parse_mul p))
    else acc
  in
  loop (parse_mul p)

and parse_mul p =
  let rec loop acc =
    if Pstate.accept p (Token.Punct "*") then
      loop (Binop (Mul, acc, parse_unary p))
    else if Pstate.accept p (Token.Punct "/") then
      loop (Binop (Div, acc, parse_unary p))
    else if Pstate.accept p (Token.Punct "%") then
      loop (Binop (Mod, acc, parse_unary p))
    else acc
  in
  loop (parse_unary p)

and parse_unary p =
  if Pstate.accept p (Token.Punct "-") then Unop (Neg, parse_unary p)
  else if Pstate.accept p (Token.Punct "!") then Unop (Not, parse_unary p)
  else if Pstate.accept p (Token.Punct "+") then parse_unary p
  else parse_postfix p

and parse_postfix p =
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
  | Token.Punct "(" ->
    Pstate.skip p;
    let e = parse_expr p in
    Pstate.expect p (Token.Punct ")");
    e
  | Token.Ident name -> (
    let loc = Pstate.loc p in
    Pstate.skip p;
    match Pstate.peek p with
    | Token.Punct "(" ->
      Pstate.skip p;
      let args = parse_args p in
      Call_expr (name, args, loc)
    | Token.Punct "[" ->
      let idx = parse_indices p in
      Array_ref (name, idx, loc)
    | _ -> Var_ref (name, loc))
  | other -> Pstate.error p "expected expression, found %s" (Token.to_string other)

and parse_args p =
  if Pstate.accept p (Token.Punct ")") then []
  else
    let rec loop acc =
      let e = parse_expr p in
      if Pstate.accept p (Token.Punct ",") then loop (e :: acc)
      else begin
        Pstate.expect p (Token.Punct ")");
        List.rev (e :: acc)
      end
    in
    loop []

and parse_indices p =
  let rec loop acc =
    if Pstate.accept p (Token.Punct "[") then begin
      let e = parse_expr p in
      Pstate.expect p (Token.Punct "]");
      loop (e :: acc)
    end
    else List.rev acc
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Declarations *)

(* declarator after the type keyword: name, optional [n][m]... dims.
   C dimensions are 0-based: [n] declares 0:n-1; [] is assumed-size. *)
let parse_declarator p dtype =
  let loc = Pstate.loc p in
  let name = Pstate.expect_ident p in
  let rec dims acc =
    if Pstate.accept p (Token.Punct "[") then
      if Pstate.accept p (Token.Punct "]") then
        dims ({ dim_lo = Int_lit 0; dim_hi = None; dim_assumed_shape = false } :: acc)
      else begin
        let e = parse_expr p in
        Pstate.expect p (Token.Punct "]");
        dims
          ({ dim_lo = Int_lit 0; dim_hi = Some (Binop (Sub, e, Int_lit 1));
             dim_assumed_shape = false }
          :: acc)
      end
    else List.rev acc
  in
  let dims = dims [] in
  {
    decl_name = name;
    decl_type = dtype;
    decl_dims = dims;
    decl_common = None;
    decl_coarray = false;
    decl_loc = loc;
  }

(* ------------------------------------------------------------------ *)
(* Statements *)

type incr_kind =
  | Step of expr  (** loop variable changes by this per iteration *)
  | Other of stmt (** arbitrary update statement *)

(* The statement parsers thread [locals]: the declarations met so far in the
   body of the function being parsed, newest first.  Each definition gets its
   own list, attached to the procedure at the end of the definition. *)
let rec parse_stmt locals p : stmt =
  let loc = Pstate.loc p in
  if Pstate.accept p (Token.Punct ";") then Nop loc
  else if Token.equal (Pstate.peek p) (Token.Punct "{") then begin
    (* anonymous block: flatten *)
    let body = parse_compound locals p in
    match body with [ s ] -> s | _ -> If (Logic_lit true, body, [], loc)
  end
  else if accept_kw p "if" then begin
    Pstate.expect p (Token.Punct "(");
    let cond = parse_expr p in
    Pstate.expect p (Token.Punct ")");
    let then_body = parse_block_or_stmt locals p in
    let else_body =
      if accept_kw p "else" then parse_block_or_stmt locals p else []
    in
    If (cond, then_body, else_body, loc)
  end
  else if accept_kw p "while" then begin
    Pstate.expect p (Token.Punct "(");
    let cond = parse_expr p in
    Pstate.expect p (Token.Punct ")");
    let body = parse_block_or_stmt locals p in
    While (cond, body, loc)
  end
  else if accept_kw p "for" then parse_for locals p loc
  else if accept_kw p "return" then begin
    if Pstate.accept p (Token.Punct ";") then Return (None, loc)
    else begin
      let e = parse_expr p in
      Pstate.expect p (Token.Punct ";");
      Return (Some e, loc)
    end
  end
  else begin
    let s = parse_simple_stmt p in
    Pstate.expect p (Token.Punct ";");
    s
  end

(* assignment / call / ++ / -- without the trailing ';' *)
and parse_simple_stmt p : stmt =
  let loc = Pstate.loc p in
  let name = Pstate.expect_ident p in
  match Pstate.peek p with
  | Token.Punct "(" ->
    Pstate.skip p;
    let args = parse_args p in
    if String.equal name "printf" then Print (args, loc) else Call (name, args, loc)
  | _ ->
    let lv =
      if Token.equal (Pstate.peek p) (Token.Punct "[") then
        Larr (name, parse_indices p, loc)
      else Lvar (name, loc)
    in
    let lv_expr =
      match lv with
      | Lvar (n, l) -> Var_ref (n, l)
      | Larr (n, i, l) -> Array_ref (n, i, l)
      | Lcoarr _ -> assert false (* MiniC has no coarrays *)
    in
    (match Pstate.peek p with
    | Token.Punct "=" ->
      Pstate.skip p;
      Assign (lv, parse_expr p, loc)
    | Token.Punct "++" ->
      Pstate.skip p;
      Assign (lv, Binop (Add, lv_expr, Int_lit 1), loc)
    | Token.Punct "--" ->
      Pstate.skip p;
      Assign (lv, Binop (Sub, lv_expr, Int_lit 1), loc)
    | Token.Punct "+=" ->
      Pstate.skip p;
      Assign (lv, Binop (Add, lv_expr, parse_expr p), loc)
    | Token.Punct "-=" ->
      Pstate.skip p;
      Assign (lv, Binop (Sub, lv_expr, parse_expr p), loc)
    | Token.Punct "*=" ->
      Pstate.skip p;
      Assign (lv, Binop (Mul, lv_expr, parse_expr p), loc)
    | Token.Punct "/=" ->
      Pstate.skip p;
      Assign (lv, Binop (Div, lv_expr, parse_expr p), loc)
    | other -> Pstate.error p "expected assignment operator, found %s" (Token.to_string other))

and parse_block_or_stmt locals p =
  if Token.equal (Pstate.peek p) (Token.Punct "{") then parse_compound locals p
  else [ parse_stmt locals p ]

and parse_compound locals p =
  Pstate.expect p (Token.Punct "{");
  let rec loop acc =
    if Pstate.accept p (Token.Punct "}") then List.rev acc
    else if Token.equal (Pstate.peek p) Token.Eof then
      Pstate.error p "unterminated block"
    else
      match Pstate.peek p with
      | Token.Ident t when is_type_kw t ->
        (* local declaration, possibly with initializer *)
        let stmts = parse_local_decl locals p in
        loop (List.rev_append stmts acc)
      | _ -> loop (parse_stmt locals p :: acc)
  in
  loop []

(* Local declarations are collected into [locals] for the enclosing
   procedure; initializers become assignments. *)
and parse_local_decl locals p =
  let tkw = Pstate.expect_ident p in
  let dtype =
    match dtype_of_kw p tkw with
    | Some d -> d
    | None -> Pstate.error p "void is not a value type"
  in
  let rec loop stmts =
    let d = parse_declarator p dtype in
    locals := d :: !locals;
    let stmts =
      if Pstate.accept p (Token.Punct "=") then
        Assign (Lvar (d.decl_name, d.decl_loc), parse_expr p, d.decl_loc) :: stmts
      else stmts
    in
    if Pstate.accept p (Token.Punct ",") then loop stmts
    else begin
      Pstate.expect p (Token.Punct ";");
      List.rev stmts
    end
  in
  loop []

and parse_for locals p loc =
  Pstate.expect p (Token.Punct "(");
  let init = parse_simple_stmt p in
  Pstate.expect p (Token.Punct ";");
  let cond = parse_expr p in
  Pstate.expect p (Token.Punct ";");
  let incr = parse_incr p in
  Pstate.expect p (Token.Punct ")");
  let body = parse_block_or_stmt locals p in
  (* canonical pattern: i = e1; i <op> e2; i by step *)
  match init, incr with
  | Assign (Lvar (v, _), lo, _), Step step_e ->
    let bound =
      match cond with
      | Binop (Lt, Var_ref (v', _), e) when String.equal v v' ->
        Some (Binop (Sub, e, Int_lit 1))
      | Binop (Le, Var_ref (v', _), e) when String.equal v v' -> Some e
      | Binop (Gt, Var_ref (v', _), e) when String.equal v v' ->
        Some (Binop (Add, e, Int_lit 1))
      | Binop (Ge, Var_ref (v', _), e) when String.equal v v' -> Some e
      | _ -> None
    in
    (match bound with
    | Some hi ->
      let step = match step_e with Int_lit 1 -> None | e -> Some e in
      Do { do_var = v; do_lo = lo; do_hi = hi; do_step = step; do_body = body; do_loc = loc }
    | None ->
      let upd =
        Assign
          ( Lvar (v, loc),
            Binop (Add, Var_ref (v, loc), step_e),
            loc )
      in
      If (Logic_lit true, [ init; While (cond, body @ [ upd ], loc) ], [], loc))
  | _, Other upd -> If (Logic_lit true, [ init; While (cond, body @ [ upd ], loc) ], [], loc)
  | _, Step step_e ->
    let upd = Nop loc in
    ignore step_e;
    If (Logic_lit true, [ init; While (cond, body @ [ upd ], loc) ], [], loc)

and parse_incr p : incr_kind =
  let loc = Pstate.loc p in
  let name = Pstate.expect_ident p in
  match Pstate.peek p with
  | Token.Punct "++" ->
    Pstate.skip p;
    Step (Int_lit 1)
  | Token.Punct "--" ->
    Pstate.skip p;
    Step (Int_lit (-1))
  | Token.Punct "+=" ->
    Pstate.skip p;
    Step (parse_expr p)
  | Token.Punct "-=" ->
    Pstate.skip p;
    Step (Unop (Neg, parse_expr p))
  | Token.Punct "=" -> (
    Pstate.skip p;
    let e = parse_expr p in
    match e with
    | Binop (Add, Var_ref (v, _), step) when String.equal v name -> Step step
    | Binop (Sub, Var_ref (v, _), step) when String.equal v name ->
      Step (Unop (Neg, step))
    | _ -> Other (Assign (Lvar (name, loc), e, loc)))
  | other -> Pstate.error p "unsupported for-increment: %s" (Token.to_string other)

(* ------------------------------------------------------------------ *)
(* Top level *)

let parse_params p =
  Pstate.expect p (Token.Punct "(");
  if Pstate.accept p (Token.Punct ")") then []
  else if kw p "void" && Token.equal (Pstate.peek2 p) (Token.Punct ")") then
  begin
    Pstate.skip p;
    Pstate.skip p;
    []
  end
  else
    let rec loop acc =
      let tkw = Pstate.expect_ident p in
      let dtype =
        match dtype_of_kw p tkw with
        | Some d -> d
        | None -> Pstate.error p "void parameter must be alone"
      in
      let d = parse_declarator p dtype in
      if Pstate.accept p (Token.Punct ",") then loop (d :: acc)
      else begin
        Pstate.expect p (Token.Punct ")");
        List.rev (d :: acc)
      end
    in
    loop []

let parse_tokens ~file src p =
  let globals = ref [] in
  let consts = ref [] in
  let procs = ref [] in
  let rec loop () =
    match Pstate.peek p with
    | Token.Eof -> ()
    | Token.Newline ->
      Pstate.skip p;
      loop ()
    | Token.Punct "#" ->
      Pstate.skip p;
      let directive = Pstate.expect_ident p in
      (if String.equal directive "define" then begin
         let name = Pstate.expect_ident p in
         let value = parse_expr p in
         consts := (name, value) :: !consts
       end);
      (* skip the rest of the directive line *)
      let rec to_eol () =
        match Pstate.peek p with
        | Token.Newline ->
          Pstate.skip p
        | Token.Eof -> ()
        | _ ->
          Pstate.skip p;
          to_eol ()
      in
      to_eol ();
      loop ()
    | Token.Ident t when is_type_kw t ->
      Pstate.skip p;
      let dtype = dtype_of_kw p t in
      let name_loc = Pstate.loc p in
      let name = Pstate.expect_ident p in
      if Token.equal (Pstate.peek p) (Token.Punct "(") then begin
        (* function definition *)
        let params = parse_params p in
        let locals = ref [] in
        let body = parse_compound locals p in
        let locals = List.rev !locals in
        let kind =
          if String.equal name "main" then Program
          else
            match dtype with None -> Subroutine | Some d -> Function d
        in
        procs :=
          {
            proc_name = name;
            proc_kind = kind;
            proc_params = List.map (fun d -> d.decl_name) params;
            proc_decls = params @ locals;
            proc_consts = [];
            proc_body = body;
            proc_loc = name_loc;
          }
          :: !procs;
        loop ()
      end
      else begin
        (* global declaration(s) *)
        let dtype =
          match dtype with
          | Some d -> d
          | None -> Pstate.error p "void variable"
        in
        (* re-parse the declarator for [name]: dims follow *)
        let rec dims acc =
          if Pstate.accept p (Token.Punct "[") then begin
            let e = parse_expr p in
            Pstate.expect p (Token.Punct "]");
            dims
          ({ dim_lo = Int_lit 0; dim_hi = Some (Binop (Sub, e, Int_lit 1));
             dim_assumed_shape = false }
          :: acc)
          end
          else List.rev acc
        in
        let first =
          {
            decl_name = name;
            decl_type = dtype;
            decl_dims = dims [];
            decl_common = Some "global";
            decl_coarray = false;
            decl_loc = name_loc;
          }
        in
        let rec more acc =
          if Pstate.accept p (Token.Punct ",") then
            let d = parse_declarator p dtype in
            more ({ d with decl_common = Some "global" } :: acc)
          else begin
            Pstate.expect p (Token.Punct ";");
            List.rev acc
          end
        in
        globals := !globals @ more [ first ];
        loop ()
      end
    | other -> Pstate.error p "unexpected token at top level: %s" (Token.to_string other)
  in
  loop ();
  {
    unit_file = file;
    unit_language = C;
    unit_globals = !globals;
    unit_consts = List.rev !consts;
    unit_procs = List.rev !procs;
    unit_iprops = Iprop.scan ~fortran:false src;
  }

let parse ~file src = parse_tokens ~file src (Lexer_c.tokenize ~file src)
