open Whirl
open Regions

type entry = {
  le_array : string;
  le_mode : Mode.t;
  le_region : Region.t;
  le_refs : int;
}

type loop_summary = {
  ls_proc : string;
  ls_line : int;
  ls_ivar : string;
  ls_depth : int;
  ls_entries : entry list;
}

(* union the effects of a loop body per (array, mode).  Using run_body keeps
   the loop's own induction variable symbolic, so we close the result under
   the loop's bounds afterwards: the summary describes all iterations. *)
let summarize_loop m summaries pu (loop : Wn.t) =
  let body = Wn.kid loop 4 in
  let ivar_st = (Wn.kid loop 0).Wn.st_idx in
  let info = Collect.run_body m pu body in
  let direct =
    List.filter_map
      (fun (a : Collect.access) ->
        match a.Collect.ac_mode with
        | Mode.USE | Mode.DEF | Mode.RUSE | Mode.RDEF ->
          Some (a.Collect.ac_st, a.Collect.ac_mode, a.Collect.ac_region)
        | Mode.FORMAL | Mode.PASSED -> None)
      info.Collect.p_accesses
  in
  let from_calls =
    List.concat_map
      (fun site -> Parallel.site_effects m summaries ~caller:pu site)
      info.Collect.p_sites
  in
  (* close every region under the loop's own bounds *)
  let env =
    {
      Affine.var_of_st =
        (fun st ->
          Some
            (Collect.sym_var ~m ~pu:pu.Ir.pu_name ~st
               ~name:(Ir.st_name m pu st)));
      const_of_st = (fun _ -> None);
      iprop_of_st = (fun st -> (Ir.st_entry m pu st).Symtab.st_iprop);
    }
  in
  let lc =
    {
      Region.lc_var = Collect.sym_var ~m ~pu:pu.Ir.pu_name ~st:ivar_st
          ~name:(Ir.st_name m pu ivar_st);
      lc_lo = Affine.of_wn env (Wn.kid loop 1);
      lc_hi = Affine.of_wn env (Wn.kid loop 2);
      lc_step =
        (match Affine.of_wn env (Wn.kid loop 3) with
        | Affine.Affine e when Linear.Expr.is_const e
                               && Numeric.Rat.is_integer (Linear.Expr.constant e)
          ->
          Some (Numeric.Rat.to_int (Linear.Expr.constant e))
        | _ -> None);
    }
  in
  (* the loop variable was recorded as a Sym var by run_body; treat it as an
     Ivar for closing: rebuild the region with the loop constraint *)
  let close region =
    let sys = (region : Region.t).Region.sys in
    let has_ivar =
      Linear.Var.Set.mem lc.Region.lc_var (Linear.System.vars sys)
    in
    if not has_ivar then region
    else begin
      (* rename the symbolic ivar to a genuine Ivar variable so
         close_under_loops eliminates it *)
      let iv =
        Linear.Var.fresh ~name:(Linear.Var.name lc.Region.lc_var) Linear.Var.Ivar
      in
      let region = Region.subst_sym [ (lc.Region.lc_var, Linear.Expr.var iv) ] region in
      Region.close_under_loops [ { lc with Region.lc_var = iv } ] region
    end
  in
  let tbl : (string * Mode.t, Region.t * int) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (st, mode, region) ->
      let name = Ir.st_name m pu st in
      let region = close region in
      match Hashtbl.find_opt tbl (name, mode) with
      | None ->
        Hashtbl.add tbl (name, mode) (region, 1);
        order := (name, mode) :: !order
      | Some (acc, n) ->
        Hashtbl.replace tbl (name, mode) (Region.union_approx acc region, n + 1))
    (direct @ from_calls);
  List.rev_map
    (fun key ->
      let region, refs = Hashtbl.find tbl key in
      let name, mode = key in
      { le_array = name; le_mode = mode; le_region = region; le_refs = refs })
    !order

let of_pu m summaries pu =
  let out = ref [] in
  let rec walk depth (w : Wn.t) =
    match w.Wn.operator with
    | Wn.OPR_DO_LOOP ->
      out :=
        {
          ls_proc = pu.Ir.pu_name;
          ls_line = Lang.Loc.line w.Wn.linenum;
          ls_ivar = Ir.st_name m pu (Wn.kid w 0).Wn.st_idx;
          ls_depth = depth;
          ls_entries = summarize_loop m summaries pu w;
        }
        :: !out;
      walk (depth + 1) (Wn.kid w 4)
    | _ -> Array.iter (walk depth) w.Wn.kids
  in
  walk 0 (Ir.body pu);
  List.rev !out

let of_module m summaries =
  List.concat_map (fun pu -> of_pu m summaries pu) m.Ir.m_pus

let render _m _pu summaries =
  let buf = Buffer.create 512 in
  List.iter
    (fun ls ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s line %d (do %s):\n"
           (String.make (2 * ls.ls_depth) ' ')
           ls.ls_proc ls.ls_line ls.ls_ivar);
      List.iter
        (fun e ->
          Buffer.add_string buf
            (Format.asprintf "%s  %-10s %-6s %a (%d refs)\n"
               (String.make (2 * ls.ls_depth) ' ')
               e.le_array
               (Mode.to_string e.le_mode)
               Region.pp e.le_region e.le_refs))
        ls.ls_entries)
    summaries;
  Buffer.contents buf
