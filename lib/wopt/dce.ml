open Whirl

type stats = {
  removed_stmts : int;
  removed_stores : int;
}

let zero = { removed_stmts = 0; removed_stores = 0 }

let add a b =
  {
    removed_stmts = a.removed_stmts + b.removed_stmts;
    removed_stores = a.removed_stores + b.removed_stores;
  }

(* a pure expression: evaluating it has no effects and cannot trap in a way
   we care to preserve *)
let rec pure (w : Wn.t) =
  match w.Wn.operator with
  | Wn.OPR_CALL | Wn.OPR_INTRINSIC_OP | Wn.OPR_ILOAD | Wn.OPR_ISTORE -> false
  | _ -> Array.for_all pure w.Wn.kids

(* scalars loaded or address-taken anywhere in the PU *)
let observed_scalars (pu : Ir.pu) =
  let tbl = Hashtbl.create 32 in
  Wn.preorder
    (fun w ->
      match w.Wn.operator with
      | Wn.OPR_LDID | Wn.OPR_LDA | Wn.OPR_IDNAME ->
        Hashtbl.replace tbl w.Wn.st_idx ()
      | _ -> ())
    (Ir.body pu);
  tbl

let is_local_scalar m pu code =
  (not (Ir.is_global_idx code))
  && (not (List.mem code pu.Ir.pu_formals))
  (* the scalar named after the function carries its result: a store to it
     is observable by every caller even though the body never reads it *)
  && (Ir.st_entry m pu code).Symtab.st_name <> pu.Ir.pu_name
  &&
  match Ir.ty_of m pu code with
  | Symtab.Ty_scalar _ -> true
  | Symtab.Ty_array _ -> false

let run_pu m (pu : Ir.pu) =
  let stats = ref zero in
  let observed = observed_scalars pu in
  let rec clean_block (w : Wn.t) : Wn.t =
    let kids = ref [] in
    let terminated = ref false in
    Array.iter
      (fun k ->
        if !terminated then
          stats := add !stats { zero with removed_stmts = 1 }
        else begin
          let k = clean_stmt k in
          (match k.Wn.operator with
          | Wn.OPR_NOP -> stats := add !stats { zero with removed_stmts = 1 }
          | Wn.OPR_RETURN ->
            kids := k :: !kids;
            terminated := true
          | Wn.OPR_STID
            when is_local_scalar m pu k.Wn.st_idx
                 && (not (Hashtbl.mem observed k.Wn.st_idx))
                 && pure (Wn.kid k 0) ->
            stats := add !stats { zero with removed_stores = 1 }
          | Wn.OPR_IF
            when Wn.kid_count (Wn.kid k 1) = 0
                 && Wn.kid_count (Wn.kid k 2) = 0
                 && pure (Wn.kid k 0) ->
            stats := add !stats { zero with removed_stmts = 1 }
          | _ -> kids := k :: !kids)
        end)
      w.Wn.kids;
    { w with Wn.kids = Array.of_list (List.rev !kids) }
  and clean_stmt (w : Wn.t) : Wn.t =
    match w.Wn.operator with
    | Wn.OPR_BLOCK -> clean_block w
    | Wn.OPR_IF ->
      {
        w with
        Wn.kids =
          [| Wn.kid w 0; clean_stmt (Wn.kid w 1); clean_stmt (Wn.kid w 2) |];
      }
    | Wn.OPR_DO_LOOP ->
      {
        w with
        Wn.kids =
          [|
            Wn.kid w 0; Wn.kid w 1; Wn.kid w 2; Wn.kid w 3;
            clean_stmt (Wn.kid w 4);
          |];
      }
    | Wn.OPR_WHILE_DO ->
      { w with Wn.kids = [| Wn.kid w 0; clean_stmt (Wn.kid w 1) |] }
    | _ -> w
  in
  let entry = Ir.body pu in
  let body = { entry with Wn.kids = [| clean_stmt (Wn.kid entry 0) |] } in
  (Ir.with_body pu body, !stats)

let run (m : Ir.module_) =
  let stats = ref zero in
  let pus =
    List.map
      (fun pu ->
        let pu', s = run_pu m pu in
        stats := add !stats s;
        pu')
      m.Ir.m_pus
  in
  ({ m with Ir.m_pus = pus }, !stats)
