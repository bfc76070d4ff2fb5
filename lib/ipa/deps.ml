open Whirl
open Regions
open Linear

type kind = Flow | Anti | Output

type t = {
  dep_array : string;
  dep_kind : kind;
  dep_carried : bool;
}

let kind_of m1 m2 =
  match m1, m2 with
  | Mode.DEF, Mode.DEF -> Some Output
  | Mode.DEF, Mode.USE -> Some Flow
  | Mode.USE, Mode.DEF -> Some Anti
  | _ -> None

(* direction-aware bound constraints (handles negative steps soundly) *)
let bound_constraints m pu (loop : Wn.t) var = Collect.loop_bounds_for m pu loop var

let ivar_sym m pu (loop : Wn.t) =
  let st = (Wn.kid loop 0).Wn.st_idx in
  Collect.sym_var ~m ~pu:pu.Ir.pu_name ~st

let body_effects m summaries pu (wn : Wn.t) =
  let info = Collect.run_body m pu wn in
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
      (fun site -> Parallel.site_effects m summaries ~caller:pu site)
      info.Collect.p_sites
  in
  direct @ from_calls

(* [base] is the loop-bounds system, built once per dependence question and
   reused across every access pair (it used to be re-normalized from the raw
   constraint list inside each pair).  Grouping does not change the meet's
   normalized form, so answers are unaffected. *)
let feasible_with base extras r1 r2' =
  let sys =
    System.meet (r1 : Region.t).Region.sys (r2' : Region.t).Region.sys
  in
  let sys = System.meet sys base in
  let sys = List.fold_left (fun s c -> System.add c s) sys extras in
  System.feasible sys

let loop_dependences m summaries pu (loop : Wn.t) =
  if loop.Wn.operator <> Wn.OPR_DO_LOOP then
    invalid_arg "Deps.loop_dependences: not a DO_LOOP";
  let v = ivar_sym m pu loop in
  let v' = Var.fresh ~name:(Var.name v ^ "'") Var.Sym in
  let bounds =
    System.of_list
      (bound_constraints m pu loop v @ bound_constraints m pu loop v')
  in
  let effects = body_effects m summaries pu (Wn.kid loop 4) in
  let deps = ref [] in
  List.iter
    (fun (st1, m1, r1) ->
      List.iter
        (fun (st2, m2, r2) ->
          if st1 = st2 then
            match kind_of m1 m2 with
            | None -> ()
            | Some k ->
              let r2' = Region.subst_sym [ (v, Expr.var v') ] r2 in
              let carried =
                feasible_with bounds
                  [
                    Constr.le
                      (Expr.add_const Numeric.Rat.one (Expr.var v))
                      (Expr.var v');
                  ]
                  r1 r2'
              in
              let same_iter =
                feasible_with bounds
                  [ Constr.eq (Expr.var v) (Expr.var v') ]
                  r1 r2'
              in
              if carried || same_iter then
                deps :=
                  {
                    dep_array = Ir.st_name m pu st1;
                    dep_kind = k;
                    dep_carried = carried;
                  }
                  :: !deps)
        effects)
    effects;
  (* deduplicate *)
  List.sort_uniq compare (List.rev !deps)

let fusion_preventing m summaries pu ~first ~second =
  if first.Wn.operator <> Wn.OPR_DO_LOOP || second.Wn.operator <> Wn.OPR_DO_LOOP
  then invalid_arg "Deps.fusion_preventing: not DO_LOOPs";
  let v1 = ivar_sym m pu first in
  let v2 = ivar_sym m pu second in
  let v = Var.fresh ~name:"fi" Var.Sym in
  let v' = Var.fresh ~name:"fi'" Var.Sym in
  let e1 =
    body_effects m summaries pu (Wn.kid first 4)
    |> List.map (fun (st, md, r) -> (st, md, Region.subst_sym [ (v1, Expr.var v) ] r))
  in
  let e2 =
    body_effects m summaries pu (Wn.kid second 4)
    |> List.map (fun (st, md, r) -> (st, md, Region.subst_sym [ (v2, Expr.var v') ] r))
  in
  let bounds =
    System.of_list
      (bound_constraints m pu first v @ bound_constraints m pu second v')
  in
  (* fusion is illegal if the second loop's iteration i' would, after
     fusion, run before a first-loop iteration i > i' that it depends on *)
  let backward =
    Constr.le (Expr.add_const Numeric.Rat.one (Expr.var v')) (Expr.var v)
  in
  let offenders = ref [] in
  List.iter
    (fun (st1, m1, r1) ->
      List.iter
        (fun (st2, m2, r2') ->
          if st1 = st2 && kind_of m1 m2 <> None then
            if feasible_with bounds [ backward ] r1 r2' then begin
              let name = Ir.st_name m pu st1 in
              if not (List.mem name !offenders) then
                offenders := name :: !offenders
            end)
        e2)
    e1;
  List.rev !offenders

let interchange_preventing m summaries pu ~outer ~inner =
  if outer.Wn.operator <> Wn.OPR_DO_LOOP || inner.Wn.operator <> Wn.OPR_DO_LOOP
  then invalid_arg "Deps.interchange_preventing: not DO_LOOPs";
  let vi = ivar_sym m pu outer and vj = ivar_sym m pu inner in
  let vi' = Var.fresh ~name:(Var.name vi ^ "'") Var.Sym in
  let vj' = Var.fresh ~name:(Var.name vj ^ "'") Var.Sym in
  let effects = body_effects m summaries pu (Wn.kid inner 4) in
  let bounds =
    System.of_list
      (bound_constraints m pu outer vi
      @ bound_constraints m pu outer vi'
      @ bound_constraints m pu inner vj
      @ bound_constraints m pu inner vj')
  in
  (* a (<, >) direction vector *)
  let direction =
    [
      Constr.le (Expr.add_const Numeric.Rat.one (Expr.var vi)) (Expr.var vi');
      Constr.le (Expr.add_const Numeric.Rat.one (Expr.var vj')) (Expr.var vj);
    ]
  in
  let offenders = ref [] in
  List.iter
    (fun (st1, m1, r1) ->
      List.iter
        (fun (st2, m2, r2) ->
          if st1 = st2 && kind_of m1 m2 <> None then begin
            let r2' =
              Region.subst_sym [ (vi, Expr.var vi'); (vj, Expr.var vj') ] r2
            in
            if feasible_with bounds direction r1 r2' then begin
              let name = Ir.st_name m pu st1 in
              if not (List.mem name !offenders) then
                offenders := name :: !offenders
            end
          end)
        effects)
    effects;
  List.rev !offenders
