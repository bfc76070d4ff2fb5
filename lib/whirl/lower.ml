open Lang

module SM = Sema.String_map

type env = {
  global : Symtab.t;
  local : Symtab.t;
  symbols : Sema.symbol SM.t;
  lang : Ast.language;
  proc_text : (string, int) Hashtbl.t;  (* proc name -> global-encoded st *)
}

let ty_of_sig st (s : Sema.array_sig) =
  Symtab.intern_ty st
    (Symtab.Ty_array
       { elem = s.Sema.a_type; dims = s.Sema.a_dims;
         contiguous = s.Sema.a_contiguous })

(* resolve a name to a WN st index (local first, then global) *)
let lookup_st env name =
  match Symtab.find_st env.local name with
  | Some idx -> Some idx
  | None -> (
    match Symtab.find_st env.global name with
    | Some idx -> Some (Ir.encode_global idx)
    | None -> None)

let sym_of env name = SM.find_opt name env.symbols

let dtype_of_sym = function
  | Sema.Sym_scalar (d, _) -> d
  | Sema.Sym_array (s, _) -> s.Sema.a_type
  | Sema.Sym_const _ -> Ast.Int_t

(* ------------------------------------------------------------------ *)
(* Expressions *)

let binop_operator = function
  | Ast.Add -> Wn.OPR_ADD
  | Ast.Sub -> Wn.OPR_SUB
  | Ast.Mul -> Wn.OPR_MPY
  | Ast.Div -> Wn.OPR_DIV
  | Ast.Mod -> Wn.OPR_MOD
  | Ast.Eq -> Wn.OPR_EQ
  | Ast.Ne -> Wn.OPR_NE
  | Ast.Lt -> Wn.OPR_LT
  | Ast.Le -> Wn.OPR_LE
  | Ast.Gt -> Wn.OPR_GT
  | Ast.Ge -> Wn.OPR_GE
  | Ast.And -> Wn.OPR_LAND
  | Ast.Or -> Wn.OPR_LIOR
  | Ast.Pow -> Wn.OPR_INTRINSIC_OP (* handled separately *)

(* The ARRAY node for a reference a(i1,...,in): row-major zero-based. *)
let rec array_node env name indices loc =
  let st_code =
    match lookup_st env name with
    | Some c -> c
    | None -> Diag.error loc "array %s has no symbol" name
  in
  let dims, elem =
    match sym_of env name with
    | Some (Sema.Sym_array (s, _)) -> (s.Sema.a_dims, s.Sema.a_type)
    | _ -> Diag.error loc "%s is not an array" name
  in
  let lowered =
    List.map2
      (fun idx (lo, _) ->
        let e = lower_expr env idx in
        match lo with
        | Some 0 | None -> e
        | Some l -> Wn.binop ~loc Wn.OPR_SUB e (Wn.intconst ~loc l))
      indices dims
  in
  let extents =
    List.map
      (fun (lo, hi) ->
        match lo, hi with
        | Some l, Some h when h >= l -> Wn.intconst ~loc (h - l + 1)
        | _ -> Wn.intconst ~loc 0)
      dims
  in
  (* Fortran is column-major in source: reverse to row-major *)
  let lowered, extents =
    match env.lang with
    | Ast.Fortran -> (List.rev lowered, List.rev extents)
    | Ast.C -> (lowered, extents)
  in
  Wn.array ~loc ~elem_size:(Ast.dtype_size elem) ~base:(Wn.lda ~loc st_code)
    ~dims:extents lowered

and lower_expr env (e : Ast.expr) : Wn.t =
  match e with
  | Ast.Int_lit n -> Wn.intconst n
  | Ast.Real_lit f -> Wn.fltconst f
  | Ast.Str_lit s -> Wn.strconst s
  | Ast.Logic_lit b -> Wn.intconst (if b then 1 else 0)
  | Ast.Var_ref (name, loc) -> (
    match sym_of env name with
    | Some (Sema.Sym_const v) -> Wn.intconst ~loc v
    | Some (Sema.Sym_array _) ->
      (* bare array name in value position: address (whole array) *)
      (match lookup_st env name with
      | Some c -> Wn.lda ~loc c
      | None -> Diag.error loc "array %s has no symbol" name)
    | Some (Sema.Sym_scalar (d, _)) -> (
      match lookup_st env name with
      | Some c -> Wn.ldid ~loc ~res:d c
      | None -> Diag.error loc "scalar %s has no symbol" name)
    | None -> Diag.error loc "unresolved name %s" name)
  | Ast.Array_ref (name, indices, loc) ->
    let addr = array_node env name indices loc in
    let res = dtype_of_sym (Option.get (sym_of env name)) in
    Wn.iload ~loc ~res addr
  | Ast.Coarray_ref (name, indices, img, loc) ->
    let addr = array_node env name indices loc in
    let res = dtype_of_sym (Option.get (sym_of env name)) in
    Wn.iload ~loc ~res (Wn.coidx ~loc ~array:addr (lower_expr env img))
  | Ast.Binop (Ast.Pow, a, b) ->
    Wn.intrinsic "pow" [ lower_expr env a; lower_expr env b ]
  | Ast.Binop (op, a, b) ->
    Wn.binop (binop_operator op) (lower_expr env a) (lower_expr env b)
  | Ast.Unop (Ast.Neg, a) -> Wn.unop Wn.OPR_NEG (lower_expr env a)
  | Ast.Unop (Ast.Not, a) -> Wn.unop Wn.OPR_LNOT (lower_expr env a)
  | Ast.Call_expr (name, args, loc) ->
    if Sema.is_intrinsic name then
      Wn.intrinsic ~loc name (List.map (lower_expr env) args)
    else (
      match Hashtbl.find_opt env.proc_text name with
      | Some st -> Wn.call ~loc ~callee:st (List.map (lower_arg env) args)
      | None -> Diag.error loc "call to unknown procedure %s" name)

(* Arguments: lvalue-able things pass their address (Fortran by-reference);
   everything else passes the value. *)
and lower_arg env (e : Ast.expr) : Wn.t =
  match e with
  | Ast.Var_ref (name, loc) -> (
    match sym_of env name with
    | Some (Sema.Sym_array _) -> (
      match lookup_st env name with
      | Some c -> Wn.lda ~loc c
      | None -> Diag.error loc "array %s has no symbol" name)
    | Some (Sema.Sym_scalar _) when env.lang = Ast.Fortran -> (
      match lookup_st env name with
      | Some c -> Wn.lda ~loc c
      | None -> Diag.error loc "scalar %s has no symbol" name)
    | _ -> lower_expr env e)
  | Ast.Array_ref (name, indices, loc) when env.lang = Ast.Fortran ->
    (* address of an element: a section starting point *)
    array_node env name indices loc
  | _ -> lower_expr env e

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec lower_stmt env (s : Ast.stmt) : Wn.t =
  match s with
  | Ast.Assign (Ast.Lvar (name, lloc), rhs, loc) -> (
    ignore lloc;
    match lookup_st env name with
    | Some c -> Wn.stid ~loc c (lower_expr env rhs)
    | None -> Diag.error loc "assignment to unknown %s" name)
  | Ast.Assign (Ast.Larr (name, indices, lloc), rhs, loc) ->
    let addr = array_node env name indices lloc in
    Wn.istore ~loc ~rhs:(lower_expr env rhs) addr
  | Ast.Assign (Ast.Lcoarr (name, indices, img, lloc), rhs, loc) ->
    let addr = array_node env name indices lloc in
    Wn.istore ~loc ~rhs:(lower_expr env rhs)
      (Wn.coidx ~loc:lloc ~array:addr (lower_expr env img))
  | Ast.If (c, t, e, loc) ->
    Wn.if_then_else ~loc ~cond:(lower_expr env c)
      ~then_:(lower_block env loc t) (lower_block env loc e)
  | Ast.Do d ->
    let loc = d.Ast.do_loc in
    let ivar =
      match lookup_st env d.Ast.do_var with
      | Some c -> c
      | None -> Diag.error loc "unknown loop variable %s" d.Ast.do_var
    in
    let step =
      match d.Ast.do_step with
      | None -> Wn.intconst ~loc 1
      | Some e -> lower_expr env e
    in
    Wn.do_loop ~loc ~ivar ~init:(lower_expr env d.Ast.do_lo)
      ~upper:(lower_expr env d.Ast.do_hi) ~step
      (lower_block env loc d.Ast.do_body)
  | Ast.While (c, body, loc) ->
    Wn.while_do ~loc ~cond:(lower_expr env c) (lower_block env loc body)
  | Ast.Call (name, args, loc) -> (
    match Hashtbl.find_opt env.proc_text name with
    | Some st -> Wn.call ~loc ~callee:st (List.map (lower_arg env) args)
    | None ->
      if Sema.is_intrinsic name then
        Wn.intrinsic ~loc name (List.map (lower_expr env) args)
      else Diag.error loc "call to unknown procedure %s" name)
  | Ast.Return (v, loc) -> Wn.return_ ~loc (Option.map (lower_expr env) v)
  | Ast.Print (es, loc) ->
    (* printing reads values: array elements must lower to ILOADs so the
       analysis counts them as USEs (verify's xcr prints are 2 of its 4) *)
    Wn.io ~loc (List.map (lower_expr env) es)
  | Ast.Nop loc -> Wn.nop ~loc ()

and lower_block env loc stmts =
  Wn.block ~loc (List.map (lower_stmt env) stmts)

(* ------------------------------------------------------------------ *)

type globals = {
  g_symtab : Symtab.t;
  g_proc_text : (string, int) Hashtbl.t;
}

(* The global table reads only the linked environment (global arrays and
   scalars, the ordered procedure entries), so every unit's PUs can be
   lowered against it separately. *)
let globals (prog : Sema.program) =
  let global = Symtab.create () in
  (* global arrays and scalars *)
  SM.iter
    (fun name (s, block) ->
      ignore
        (Symtab.enter_st global ~iprop:s.Sema.a_iprop ~name
           ~ty:(ty_of_sig global s) ~sclass:(Symtab.Sclass_common block)
           ~loc:s.Sema.a_decl_loc ()))
    prog.Sema.prog_globals;
  SM.iter
    (fun name (d, block) ->
      ignore
        (Symtab.enter_st global ~name
           ~ty:(Symtab.intern_ty global (Symtab.Ty_scalar d))
           ~sclass:(Symtab.Sclass_common block) ~loc:Loc.dummy ()))
    prog.Sema.prog_global_scalars;
  (* procedure entry symbols *)
  let proc_text = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let pi = SM.find name prog.Sema.prog_procs in
      let ret =
        match pi.Sema.pi_proc.Ast.proc_kind with
        | Ast.Function d -> d
        | Ast.Program | Ast.Subroutine -> Ast.Int_t
      in
      let st =
        Symtab.enter_st global ~name
          ~ty:(Symtab.intern_ty global (Symtab.Ty_scalar ret))
          ~sclass:Symtab.Sclass_text ~loc:pi.Sema.pi_proc.Ast.proc_loc ()
      in
      Hashtbl.replace proc_text name (Ir.encode_global st))
    prog.Sema.prog_order;
  { g_symtab = global; g_proc_text = proc_text }

let lower_proc g (pi : Sema.proc_info) =
  let p = pi.Sema.pi_proc in
  let name = p.Ast.proc_name in
  let local = Symtab.create () in
  let enter_local n sym sclass =
    match sym with
    | Sema.Sym_scalar (d, _) ->
      ignore
        (Symtab.enter_st local ~name:n
           ~ty:(Symtab.intern_ty local (Symtab.Ty_scalar d))
           ~sclass ~loc:p.Ast.proc_loc ())
    | Sema.Sym_array (s, _) ->
      ignore
        (Symtab.enter_st local ~iprop:s.Sema.a_iprop ~name:n
           ~ty:(ty_of_sig local s) ~sclass ~loc:s.Sema.a_decl_loc ())
    | Sema.Sym_const _ -> ()
  in
  (* formals first, in parameter order *)
  let formal_idxs =
    List.map
      (fun prm ->
        (match SM.find_opt prm pi.Sema.pi_symbols with
        | Some sym -> enter_local prm sym Symtab.Sclass_formal
        | None -> Diag.error p.Ast.proc_loc "formal %s has no symbol" prm);
        match Symtab.find_st local prm with
        | Some idx -> idx
        | None -> assert false)
      p.Ast.proc_params
  in
  (* locals: everything not formal, not global, not const *)
  SM.iter
    (fun n sym ->
      match sym with
      | Sema.Sym_scalar (_, Sema.Local) | Sema.Sym_array (_, Sema.Local) ->
        if Symtab.find_st local n = None then
          enter_local n sym Symtab.Sclass_auto
      | _ -> ())
    pi.Sema.pi_symbols;
  let env =
    {
      global = g.g_symtab;
      local;
      symbols = pi.Sema.pi_symbols;
      lang = pi.Sema.pi_language;
      proc_text = g.g_proc_text;
    }
  in
  let body = lower_block env p.Ast.proc_loc p.Ast.proc_body in
  let pu_st = Hashtbl.find g.g_proc_text name in
  {
    Ir.pu_name = name;
    pu_st;
    pu_formals = formal_idxs;
    pu_body = Ir.tree (Wn.func_entry ~loc:p.Ast.proc_loc ~st:pu_st body);
    pu_symtab = local;
    pu_loc = p.Ast.proc_loc;
    pu_file = pi.Sema.pi_file;
    pu_object = pi.Sema.pi_object;
    pu_lang = pi.Sema.pi_language;
  }

let assemble g (prog : Sema.program) pus =
  {
    Ir.m_global = g.g_symtab;
    m_pus = pus;
    m_program =
      { prog with Sema.prog_procs = SM.map Sema.header prog.Sema.prog_procs };
  }

let lower (prog : Sema.program) : Ir.module_ =
  Obs.Span.with_ ~cat:"phase" ~name:"lower" @@ fun () ->
  let g = globals prog in
  assemble g prog
    (List.map
       (fun name -> lower_proc g (SM.find name prog.Sema.prog_procs))
       prog.Sema.prog_order)
