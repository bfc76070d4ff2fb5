open Whirl

type stats = {
  folded_loads : int;
  folded_ops : int;
  folded_branches : int;
}

let zero_stats = { folded_loads = 0; folded_ops = 0; folded_branches = 0 }

let add_stats a b =
  {
    folded_loads = a.folded_loads + b.folded_loads;
    folded_ops = a.folded_ops + b.folded_ops;
    folded_branches = a.folded_branches + b.folded_branches;
  }

type cvalue = Cint of int | Cflt of float

module Env = Map.Make (Int)

type ctx = {
  m : Ir.module_;
  pu : Ir.pu;
  formals : (int, unit) Hashtbl.t;
  mutable st : stats;
}

let is_scalar ctx code =
  match Ir.ty_of ctx.m ctx.pu code with
  | Symtab.Ty_scalar _ -> true
  | Symtab.Ty_array _ -> false

(* scalars we are allowed to track: local non-formal scalars, plus global
   scalars between calls *)
let trackable ctx code =
  is_scalar ctx code && not (Hashtbl.mem ctx.formals code)

let kill_globals env = Env.filter (fun code _ -> not (Ir.is_global_idx code)) env

(* every scalar STID target in a subtree (for loop bodies) *)
let stored_scalars ctx wn =
  let acc = ref [] in
  Wn.preorder
    (fun w ->
      match w.Wn.operator with
      | Wn.OPR_STID -> acc := w.Wn.st_idx :: !acc
      | Wn.OPR_CALL ->
        (* by-reference scalar arguments may be stored by the callee *)
        Array.iter
          (fun parm ->
            let a = Wn.kid parm 0 in
            if a.Wn.operator = Wn.OPR_LDA && is_scalar ctx a.Wn.st_idx then
              acc := a.Wn.st_idx :: !acc)
          w.Wn.kids
      | _ -> ())
    wn;
  !acc

let const_of_node (w : Wn.t) =
  match w.Wn.operator with
  | Wn.OPR_INTCONST -> Some (Cint w.Wn.const_val)
  | Wn.OPR_CONST -> Some (Cflt w.Wn.flt_val)
  | _ -> None

let node_of_const ~loc = function
  | Cint n -> Wn.intconst ~loc n
  | Cflt f -> Wn.fltconst ~loc f

let fold_binop op a b =
  let bool_ b = Some (Cint (if b then 1 else 0)) in
  match op, a, b with
  | Wn.OPR_ADD, Cint x, Cint y -> Some (Cint (x + y))
  | Wn.OPR_SUB, Cint x, Cint y -> Some (Cint (x - y))
  | Wn.OPR_MPY, Cint x, Cint y -> Some (Cint (x * y))
  | Wn.OPR_DIV, Cint x, Cint y when y <> 0 -> Some (Cint (x / y))
  | Wn.OPR_MOD, Cint x, Cint y when y <> 0 -> Some (Cint (x mod y))
  | Wn.OPR_ADD, Cflt x, Cflt y -> Some (Cflt (x +. y))
  | Wn.OPR_SUB, Cflt x, Cflt y -> Some (Cflt (x -. y))
  | Wn.OPR_MPY, Cflt x, Cflt y -> Some (Cflt (x *. y))
  | Wn.OPR_DIV, Cflt x, Cflt y when y <> 0.0 -> Some (Cflt (x /. y))
  | Wn.OPR_EQ, Cint x, Cint y -> bool_ (x = y)
  | Wn.OPR_NE, Cint x, Cint y -> bool_ (x <> y)
  | Wn.OPR_LT, Cint x, Cint y -> bool_ (x < y)
  | Wn.OPR_LE, Cint x, Cint y -> bool_ (x <= y)
  | Wn.OPR_GT, Cint x, Cint y -> bool_ (x > y)
  | Wn.OPR_GE, Cint x, Cint y -> bool_ (x >= y)
  | Wn.OPR_LAND, Cint x, Cint y -> bool_ (x <> 0 && y <> 0)
  | Wn.OPR_LIOR, Cint x, Cint y -> bool_ (x <> 0 || y <> 0)
  | _ -> None

let rec fold_expr ctx env (w : Wn.t) : Wn.t =
  match w.Wn.operator with
  | Wn.OPR_LDID -> (
    match Env.find_opt w.Wn.st_idx env with
    | Some c ->
      ctx.st <- add_stats ctx.st { zero_stats with folded_loads = 1 };
      node_of_const ~loc:w.Wn.linenum c
    | None -> w)
  | Wn.OPR_INTCONST | Wn.OPR_CONST | Wn.OPR_STRCONST | Wn.OPR_LDA
  | Wn.OPR_IDNAME ->
    w
  | Wn.OPR_CALL ->
    (* expression call: argument expressions folded, effects handled by the
       enclosing statement walk *)
    { w with Wn.kids = Array.map (fold_expr ctx env) w.Wn.kids }
  | _ ->
    let kids = Array.map (fold_expr ctx env) w.Wn.kids in
    let w = { w with Wn.kids = kids } in
    let folded =
      match w.Wn.operator, Array.length kids with
      | ( ( Wn.OPR_ADD | Wn.OPR_SUB | Wn.OPR_MPY | Wn.OPR_DIV | Wn.OPR_MOD
          | Wn.OPR_EQ | Wn.OPR_NE | Wn.OPR_LT | Wn.OPR_LE | Wn.OPR_GT
          | Wn.OPR_GE | Wn.OPR_LAND | Wn.OPR_LIOR ),
          2 ) -> (
        match const_of_node kids.(0), const_of_node kids.(1) with
        | Some a, Some b -> fold_binop w.Wn.operator a b
        | _ -> None)
      | Wn.OPR_NEG, 1 -> (
        match const_of_node kids.(0) with
        | Some (Cint n) -> Some (Cint (-n))
        | Some (Cflt f) -> Some (Cflt (-.f))
        | None -> None)
      | Wn.OPR_LNOT, 1 -> (
        match const_of_node kids.(0) with
        | Some (Cint n) -> Some (Cint (if n = 0 then 1 else 0))
        | _ -> None)
      | Wn.OPR_INTRINSIC_OP, 1 when w.Wn.str_val = "abs" -> (
        match const_of_node kids.(0) with
        | Some (Cint n) -> Some (Cint (abs n))
        | Some (Cflt f) -> Some (Cflt (Float.abs f))
        | None -> None)
      | Wn.OPR_INTRINSIC_OP, 2 when w.Wn.str_val = "mod" -> (
        match const_of_node kids.(0), const_of_node kids.(1) with
        | Some (Cint a), Some (Cint b) when b <> 0 -> Some (Cint (a mod b))
        | _ -> None)
      | _ -> None
    in
    (match folded with
    | Some c ->
      ctx.st <- add_stats ctx.st { zero_stats with folded_ops = 1 };
      node_of_const ~loc:w.Wn.linenum c
    | None -> w)

let env_join a b =
  Env.merge
    (fun _ va vb ->
      match va, vb with Some x, Some y when x = y -> Some x | _ -> None)
    a b

let call_effects _ctx env (w : Wn.t) =
  (* kill globals and by-reference scalar arguments *)
  let env = kill_globals env in
  Array.fold_left
    (fun env parm ->
      let a = Wn.kid parm 0 in
      if a.Wn.operator = Wn.OPR_LDA then Env.remove a.Wn.st_idx env else env)
    env w.Wn.kids

(* a statement whose expressions contain calls must apply the calls'
   effects (globals and by-reference arguments clobbered) to the outgoing
   environment, even when the statement itself is not an OPR_CALL *)
let embedded_call_effects ctx env (w : Wn.t) =
  let has_call =
    Wn.count (fun n -> n.Wn.operator = Wn.OPR_CALL) w > 0
  in
  if not has_call then env
  else
    List.fold_left
      (fun e code -> Env.remove code e)
      (kill_globals env) (stored_scalars ctx w)

let rec walk_stmt ctx env (w : Wn.t) : Wn.t * cvalue Env.t =
  match w.Wn.operator with
  | Wn.OPR_BLOCK ->
    let env = ref env in
    let kids =
      Array.map
        (fun k ->
          let k', e' = walk_stmt ctx !env k in
          env := e';
          k')
        w.Wn.kids
    in
    ({ w with Wn.kids = kids }, !env)
  | Wn.OPR_FUNC_ENTRY ->
    let body, env = walk_stmt ctx env (Wn.kid w 0) in
    ({ w with Wn.kids = [| body |] }, env)
  | Wn.OPR_STID ->
    let rhs = fold_expr ctx env (Wn.kid w 0) in
    let env = embedded_call_effects ctx env (Wn.kid w 0) in
    let env =
      match const_of_node rhs with
      | Some c when trackable ctx w.Wn.st_idx -> Env.add w.Wn.st_idx c env
      | _ -> Env.remove w.Wn.st_idx env
    in
    ({ w with Wn.kids = [| rhs |] }, env)
  | Wn.OPR_ISTORE ->
    let rhs = fold_expr ctx env (Wn.kid w 0) in
    let addr = fold_expr ctx env (Wn.kid w 1) in
    ({ w with Wn.kids = [| rhs; addr |] }, embedded_call_effects ctx env w)
  | Wn.OPR_IF -> (
    let cond = fold_expr ctx env (Wn.kid w 0) in
    match const_of_node cond with
    | Some (Cint c) ->
      ctx.st <- add_stats ctx.st { zero_stats with folded_branches = 1 };
      let live = if c <> 0 then Wn.kid w 1 else Wn.kid w 2 in
      walk_stmt ctx env live
    | _ ->
      let then_, env_t = walk_stmt ctx env (Wn.kid w 1) in
      let else_, env_e = walk_stmt ctx env (Wn.kid w 2) in
      ( { w with Wn.kids = [| cond; then_; else_ |] },
        env_join env_t env_e ))
  | Wn.OPR_DO_LOOP ->
    let init = fold_expr ctx env (Wn.kid w 1) in
    let upper = fold_expr ctx env (Wn.kid w 2) in
    let step = fold_expr ctx env (Wn.kid w 3) in
    let killed =
      List.fold_left
        (fun e code -> Env.remove code e)
        env
        ((Wn.kid w 0).Wn.st_idx :: stored_scalars ctx (Wn.kid w 4))
    in
    let body, _ = walk_stmt ctx killed (Wn.kid w 4) in
    ({ w with Wn.kids = [| Wn.kid w 0; init; upper; step; body |] }, killed)
  | Wn.OPR_WHILE_DO ->
    let killed =
      List.fold_left
        (fun e code -> Env.remove code e)
        env
        (stored_scalars ctx (Wn.kid w 1))
    in
    let cond = fold_expr ctx killed (Wn.kid w 0) in
    let body, _ = walk_stmt ctx killed (Wn.kid w 1) in
    ({ w with Wn.kids = [| cond; body |] }, killed)
  | Wn.OPR_CALL ->
    let kids = Array.map (fold_expr ctx env) w.Wn.kids in
    let w = { w with Wn.kids = kids } in
    (w, call_effects ctx env w)
  | Wn.OPR_IO | Wn.OPR_INTRINSIC_OP | Wn.OPR_RETURN ->
    ( { w with Wn.kids = Array.map (fold_expr ctx env) w.Wn.kids },
      embedded_call_effects ctx env w )
  | Wn.OPR_NOP -> (w, env)
  | _ -> ({ w with Wn.kids = Array.map (fold_expr ctx env) w.Wn.kids }, env)

let run_pu m (pu : Ir.pu) =
  let formals = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace formals f ()) pu.Ir.pu_formals;
  let ctx = { m; pu; formals; st = zero_stats } in
  let body, _ = walk_stmt ctx Env.empty (Ir.body pu) in
  (Ir.with_body pu body, ctx.st)

let run (m : Ir.module_) =
  let stats = ref zero_stats in
  let pus =
    List.map
      (fun pu ->
        let pu', s = run_pu m pu in
        stats := add_stats !stats s;
        pu')
      m.Ir.m_pus
  in
  ({ m with Ir.m_pus = pus }, !stats)
