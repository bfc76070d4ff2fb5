open Whirl
open Regions
open Linear

type conflict = {
  c_array : string;
  c_mode1 : Mode.t;
  c_mode2 : Mode.t;
  c_region1 : Region.t;
  c_region2 : Region.t;
}

type effects = (int * Mode.t * Region.t) list

let site_effects m summaries ~caller (site : Collect.site) : effects =
  match Ir.find_pu m site.Collect.s_callee with
  | None -> []
  | Some callee_pu ->
    let summary =
      match List.assoc_opt site.Collect.s_callee summaries with
      | Some s -> s
      | None -> Summary.opaque m callee_pu
    in
    Summary.translate m ~caller ~callee:callee_pu ~site summary
    |> List.map (fun (t : Summary.translated) ->
           (t.Summary.t_st, t.Summary.t_mode, t.Summary.t_region))

let involves_def m1 m2 =
  Mode.equal m1 Mode.DEF || Mode.equal m2 Mode.DEF

let conflicts_between m pu (e1 : effects) (e2 : effects) =
  List.concat_map
    (fun (st1, m1, r1) ->
      List.filter_map
        (fun (st2, m2, r2) ->
          if st1 = st2 && involves_def m1 m2 && Region.intersects r1 r2 then
            Some
              {
                c_array = Ir.st_name m pu st1;
                c_mode1 = m1;
                c_mode2 = m2;
                c_region1 = r1;
                c_region2 = r2;
              }
          else None)
        e2)
    e1

let sites_independent m summaries ~caller s1 s2 =
  let e1 = site_effects m summaries ~caller s1 in
  let e2 = site_effects m summaries ~caller s2 in
  conflicts_between m caller e1 e2

(* ------------------------------------------------------------------ *)

type loop_verdict = {
  lv_parallel : bool;
  lv_conflicts : conflict list;
  lv_private_scalars : string list;
}

(* feasibility of "iterations i and i' (i < i') touch a common element" *)
let cross_iteration_conflict loop_bounds_constraints v v' r1 r2 =
  let r2' = Region.subst_sym [ (v, Expr.var v') ] r2 in
  let sys =
    System.meet (r1 : Region.t).Region.sys (r2' : Region.t).Region.sys
  in
  let sys = System.meet sys loop_bounds_constraints in
  let sys =
    System.add
      (Constr.le
         (Expr.add_const Numeric.Rat.one (Expr.var v))
         (Expr.var v'))
      sys
  in
  System.feasible sys

let loop_parallel m summaries pu (w : Wn.t) =
  if w.Wn.operator <> Wn.OPR_DO_LOOP then
    invalid_arg "Parallel.loop_parallel: not a DO_LOOP";
  let ivar_st = (Wn.kid w 0).Wn.st_idx in
  let ivar_name = Ir.st_name m pu ivar_st in
  let v = Collect.sym_var ~m ~pu:pu.Ir.pu_name ~st:ivar_st in
  let v' = Var.fresh ~name:(ivar_name ^ "'") Var.Sym in
  let body = Wn.kid w 4 in
  let info = Collect.run_body m pu body in
  (* direct accesses plus translated callee effects *)
  let direct =
    List.filter_map
      (fun (a : Collect.access) ->
        match a.Collect.ac_mode with
        | Mode.USE | Mode.DEF ->
          Some (a.Collect.ac_st, a.Collect.ac_mode, a.Collect.ac_region)
        | Mode.FORMAL | Mode.PASSED | Mode.RUSE | Mode.RDEF -> None)
      info.Collect.p_accesses
  in
  let from_calls =
    List.concat_map
      (fun site -> site_effects m summaries ~caller:pu site)
      info.Collect.p_sites
  in
  let all = direct @ from_calls in
  (* direction-aware bounds of the two iteration variables *)
  let bounds =
    System.of_list
      (Collect.loop_bounds_for m pu w v @ Collect.loop_bounds_for m pu w v')
  in
  let conflicts = ref [] in
  List.iter
    (fun (st1, m1, r1) ->
      List.iter
        (fun (st2, m2, r2) ->
          if st1 = st2 && involves_def m1 m2 then
            if cross_iteration_conflict bounds v v' r1 r2 then
              conflicts :=
                {
                  c_array = Ir.st_name m pu st1;
                  c_mode1 = m1;
                  c_mode2 = m2;
                  c_region1 = r1;
                  c_region2 = r2;
                }
                :: !conflicts)
        all)
    all;
  let private_scalars =
    Collect.scalar_defs m pu body
    |> List.filter (fun st -> st <> ivar_st)
    |> List.map (fun st -> Ir.st_name m pu st)
  in
  {
    lv_parallel = !conflicts = [];
    lv_conflicts = List.rev !conflicts;
    lv_private_scalars = private_scalars;
  }
