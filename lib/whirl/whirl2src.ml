let operator_symbol = function
  | Wn.OPR_ADD -> "+"
  | Wn.OPR_SUB -> "-"
  | Wn.OPR_MPY -> "*"
  | Wn.OPR_DIV -> "/"
  | Wn.OPR_MOD -> "mod"
  | Wn.OPR_EQ -> "=="
  | Wn.OPR_NE -> "!="
  | Wn.OPR_LT -> "<"
  | Wn.OPR_LE -> "<="
  | Wn.OPR_GT -> ">"
  | Wn.OPR_GE -> ">="
  | Wn.OPR_LAND -> ".and."
  | Wn.OPR_LIOR -> ".or."
  | op -> Wn.operator_name op

(* Reconstruct source-order, source-base subscript expressions from a
   row-major zero-based ARRAY node. *)
let source_indices m pu (w : Wn.t) =
  let n = Wn.num_dim w in
  let st = (Wn.array_base w).Wn.st_idx in
  let dims =
    match Ir.ty_of m pu st with
    | Symtab.Ty_array { dims; _ } -> dims
    | Symtab.Ty_scalar _ -> []
  in
  let internal = List.init n (Wn.array_index w) in
  let source_order =
    match pu.Ir.pu_lang with
    | Lang.Ast.Fortran -> List.rev internal
    | Lang.Ast.C -> internal
  in
  (* undo the zero-based shift *)
  let lows =
    if List.length dims = n then List.map fst dims else List.init n (fun _ -> None)
  in
  List.map2
    (fun e lo ->
      match lo with
      | Some 0 | None -> `Plain e
      | Some l -> `Shifted (e, l))
    source_order lows

let rec pp_expr m pu ppf (w : Wn.t) =
  match w.Wn.operator with
  | Wn.OPR_INTCONST -> Format.fprintf ppf "%d" w.Wn.const_val
  | Wn.OPR_CONST -> Format.fprintf ppf "%g" w.Wn.flt_val
  | Wn.OPR_STRCONST -> Format.fprintf ppf "%S" w.Wn.str_val
  | Wn.OPR_LDID | Wn.OPR_IDNAME | Wn.OPR_LDA ->
    Format.pp_print_string ppf (Ir.st_name m pu w.Wn.st_idx)
  | Wn.OPR_ILOAD -> pp_expr m pu ppf (Wn.kid w 0)
  | Wn.OPR_COIDX ->
    Format.fprintf ppf "%a[%a]" (pp_expr m pu) (Wn.kid w 0) (pp_expr m pu)
      (Wn.kid w 1)
  | Wn.OPR_ARRAY ->
    let name = Ir.st_name m pu (Wn.array_base w).Wn.st_idx in
    Format.fprintf ppf "%s(%a)" name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf -> function
           | `Plain e -> pp_expr m pu ppf e
           | `Shifted (e, l) ->
             (* print e + l, folding when e is constant *)
             (match e.Wn.operator with
             | Wn.OPR_INTCONST -> Format.fprintf ppf "%d" (e.Wn.const_val + l)
             | Wn.OPR_SUB
               when (Wn.kid e 1).Wn.operator = Wn.OPR_INTCONST
                    && (Wn.kid e 1).Wn.const_val = l ->
               (* (i - l) + l = i *)
               pp_expr m pu ppf (Wn.kid e 0)
             | _ -> Format.fprintf ppf "%a + %d" (pp_expr m pu) e l)))
      (source_indices m pu w)
  | Wn.OPR_NEG -> Format.fprintf ppf "(-%a)" (pp_expr m pu) (Wn.kid w 0)
  | Wn.OPR_LNOT -> Format.fprintf ppf "(.not. %a)" (pp_expr m pu) (Wn.kid w 0)
  | Wn.OPR_MOD ->
    Format.fprintf ppf "mod(%a, %a)" (pp_expr m pu) (Wn.kid w 0) (pp_expr m pu)
      (Wn.kid w 1)
  | Wn.OPR_ADD | Wn.OPR_SUB | Wn.OPR_MPY | Wn.OPR_DIV | Wn.OPR_EQ | Wn.OPR_NE
  | Wn.OPR_LT | Wn.OPR_LE | Wn.OPR_GT | Wn.OPR_GE | Wn.OPR_LAND | Wn.OPR_LIOR
    ->
    Format.fprintf ppf "(%a %s %a)" (pp_expr m pu) (Wn.kid w 0)
      (operator_symbol w.Wn.operator)
      (pp_expr m pu) (Wn.kid w 1)
  | Wn.OPR_INTRINSIC_OP ->
    Format.fprintf ppf "%s(%a)" w.Wn.str_val (pp_args m pu) w
  | Wn.OPR_CALL ->
    Format.fprintf ppf "%s(%a)" (Ir.st_name m pu w.Wn.st_idx) (pp_args m pu) w
  | Wn.OPR_PARM -> pp_expr m pu ppf (Wn.kid w 0)
  | op ->
    Format.fprintf ppf "<%s>" (Wn.operator_name op)

and pp_args m pu ppf w =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (pp_expr m pu) ppf
    (Array.to_list w.Wn.kids)

let rec pp_stmt m pu ppf (w : Wn.t) =
  match w.Wn.operator with
  | Wn.OPR_BLOCK ->
    Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_stmt m pu) ppf
      (Array.to_list w.Wn.kids)
  | Wn.OPR_STID ->
    Format.fprintf ppf "%s = %a" (Ir.st_name m pu w.Wn.st_idx) (pp_expr m pu)
      (Wn.kid w 0)
  | Wn.OPR_ISTORE ->
    Format.fprintf ppf "%a = %a" (pp_expr m pu) (Wn.kid w 1) (pp_expr m pu)
      (Wn.kid w 0)
  | Wn.OPR_DO_LOOP ->
    let iv = Ir.st_name m pu (Wn.kid w 0).Wn.st_idx in
    let step = Wn.kid w 3 in
    let pp_step ppf s =
      match s.Wn.operator with
      | Wn.OPR_INTCONST when s.Wn.const_val = 1 -> ()
      | _ -> Format.fprintf ppf ", %a" (pp_expr m pu) s
    in
    Format.fprintf ppf "@[<v 2>do %s = %a, %a%a@,%a@]@,end do" iv
      (pp_expr m pu) (Wn.kid w 1) (pp_expr m pu) (Wn.kid w 2) pp_step step
      (pp_stmt m pu) (Wn.kid w 4)
  | Wn.OPR_WHILE_DO ->
    Format.fprintf ppf "@[<v 2>do while (%a)@,%a@]@,end do" (pp_expr m pu)
      (Wn.kid w 0) (pp_stmt m pu) (Wn.kid w 1)
  | Wn.OPR_IF ->
    let has_else = Wn.kid_count (Wn.kid w 2) > 0 in
    if has_else then
      Format.fprintf ppf
        "@[<v 2>if (%a) then@,%a@]@,@[<v 2>else@,%a@]@,end if" (pp_expr m pu)
        (Wn.kid w 0) (pp_stmt m pu) (Wn.kid w 1) (pp_stmt m pu) (Wn.kid w 2)
    else
      Format.fprintf ppf "@[<v 2>if (%a) then@,%a@]@,end if" (pp_expr m pu)
        (Wn.kid w 0) (pp_stmt m pu) (Wn.kid w 1)
  | Wn.OPR_CALL ->
    Format.fprintf ppf "call %s(%a)" (Ir.st_name m pu w.Wn.st_idx)
      (pp_args m pu) w
  | Wn.OPR_INTRINSIC_OP ->
    Format.fprintf ppf "call %s(%a)" w.Wn.str_val (pp_args m pu) w
  | Wn.OPR_RETURN ->
    if Wn.kid_count w = 0 then Format.pp_print_string ppf "return"
    else Format.fprintf ppf "return %a" (pp_expr m pu) (Wn.kid w 0)
  | Wn.OPR_IO -> Format.fprintf ppf "print *, %a" (pp_args m pu) w
  | Wn.OPR_NOP -> Format.pp_print_string ppf "continue"
  | _ -> Format.fprintf ppf "! <%s>" (Wn.operator_name w.Wn.operator)

let pp_pu m ppf (pu : Ir.pu) =
  let formals =
    List.map
      (fun idx -> (Symtab.st pu.Ir.pu_symtab idx).Symtab.st_name)
      pu.Ir.pu_formals
  in
  Format.fprintf ppf "@[<v 2>subroutine %s(%s)@,%a@]@,end@." pu.Ir.pu_name
    (String.concat ", " formals)
    (pp_stmt m pu)
    (Wn.kid (Ir.body pu) 0)

let pu_to_string m pu = Format.asprintf "%a" (pp_pu m) pu

let module_to_string m =
  String.concat "\n" (List.map (pu_to_string m) m.Ir.m_pus)
