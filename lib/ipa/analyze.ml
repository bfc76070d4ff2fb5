open Whirl
open Regions

type proc_table = {
  t_proc : string;
  t_accesses : Collect.access list;
}

type result = {
  r_module : Ir.module_;
  r_callgraph : Callgraph.t;
  r_infos : (string * Collect.pu_info) list;
  r_tables : proc_table list;
  r_summaries : (string * Summary.t) list;
  r_rows : Rgnfile.Row.t list;
  r_dgn : Rgnfile.Files.dgn;
  r_cfgs : (string * Cfg.t) list;
}

(* ------------------------------------------------------------------ *)
(* Display conversion *)

let source_lows m pu st =
  match Ir.ty_of m pu st with
  | Symtab.Ty_array { dims; _ } ->
    let lows = List.map (fun (lo, _) -> Option.value lo ~default:0) dims in
    (match pu.Ir.pu_lang with
    | Lang.Ast.Fortran -> List.rev lows  (* to row-major order *)
    | Lang.Ast.C -> lows)
  | Symtab.Ty_scalar _ -> []

let bound_str lo = function
  | Region.Bconst x -> string_of_int (x + lo)
  | Region.Bsym e ->
    Format.asprintf "%a" Linear.Expr.pp
      (Linear.Expr.add_const (Numeric.Rat.of_int lo) e)
  | Region.Bunknown -> "*"

let stride_str = function
  | Region.Sconst s -> string_of_int s
  | Region.Sunknown -> "*"

(* The triplet strings are a function of the source lower bounds and the
   region's dims alone; a pass renders the same few of them for every
   access, so it keeps one memo per run. *)
type display_memo =
  (int list * Region.dim list, string * string * string) Hashtbl.t

let display_memo () : display_memo = Hashtbl.create 256

let display_bounds memo m pu st region =
  let lows = source_lows m pu st in
  let dims = Region.dim_list region in
  let lows =
    if List.length lows = List.length dims then lows
    else List.map (fun _ -> 0) dims
  in
  let key = (lows, dims) in
  match Hashtbl.find_opt memo key with
  | Some strings -> strings
  | None ->
    let lb =
      String.concat "|"
        (List.map2 (fun lo d -> bound_str lo d.Region.lb) lows dims)
    in
    let ub =
      String.concat "|"
        (List.map2 (fun lo d -> bound_str lo d.Region.ub) lows dims)
    in
    let stride =
      String.concat "|" (List.map (fun d -> stride_str d.Region.stride) dims)
    in
    let strings = (lb, ub, stride) in
    Hashtbl.add memo key strings;
    strings

let dim_size_str m pu st =
  Collect.extents_of m pu st
  |> List.map (fun e -> string_of_int (Option.value e ~default:0))
  |> String.concat "|"

(* ------------------------------------------------------------------ *)
(* Analysis *)

let summarize_pu (m : Ir.module_) ~pu_of ~lookup (info : Collect.pu_info) =
  let pu = info.Collect.p_pu in
  let local = Summary.of_local m pu info.Collect.p_accesses in
  let extra = ref [] in
  let entries = ref [] in
  List.iter
    (fun (site : Collect.site) ->
      match pu_of site.Collect.s_callee with
      | None -> ()
      | Some callee_pu ->
        let callee_summary =
          match lookup site.Collect.s_callee with
          | Some s -> s
          | None ->
            (* cycle in the call graph: worst-case summary *)
            Summary.opaque m callee_pu
        in
        let translated =
          Summary.translate m ~caller:pu ~callee:callee_pu ~site callee_summary
        in
        List.iter
          (fun (tr : Summary.translated) ->
            extra :=
              {
                Collect.ac_st = tr.Summary.t_st;
                ac_mode = tr.Summary.t_mode;
                ac_region = tr.Summary.t_region;
                ac_loc = site.Collect.s_loc;
                ac_via = Some site.Collect.s_callee;
                ac_sparse = None;
              }
              :: !extra;
            let key =
              if Ir.is_global_idx tr.Summary.t_st then
                Summary.Kglobal tr.Summary.t_st
              else
                match
                  let rec pos i = function
                    | [] -> None
                    | f :: rest ->
                      if f = tr.Summary.t_st then Some i else pos (i + 1) rest
                  in
                  pos 0 pu.Ir.pu_formals
                with
                | Some p -> Summary.Kformal p
                | None -> Summary.Kglobal (-1)
            in
            entries :=
              {
                Summary.e_key = key;
                e_mode = tr.Summary.t_mode;
                e_region = tr.Summary.t_region;
                e_count = tr.Summary.t_count;
              }
              :: !entries)
          translated)
    info.Collect.p_sites;
  (* one bucketed pass over all call-site contributions (same result as the
     per-entry add_entry fold: entries are replayed in collection order) *)
  let summary = Summary.add_entries local (List.rev !entries) in
  (* entries that target caller locals (key Kglobal (-1)) don't escape *)
  let exported =
    List.filter
      (fun (e : Summary.entry) -> e.Summary.e_key <> Summary.Kglobal (-1))
      summary
  in
  (exported, List.rev !extra)

let assemble (m : Ir.module_) cg ~infos ~summaries ~propagated ~cfgs : result =
  let tables =
    List.map
      (fun (name, (info : Collect.pu_info)) ->
        { t_proc = name; t_accesses = info.Collect.p_accesses @ propagated name })
      infos
  in
  (* ---------------------------------------------------------------- *)
  (* Rows *)
  let is_global st = Ir.is_global_idx st in
  (* reference counts per (scope, array, mode, object file), direct accesses
     only -- Fig 14's "u USE 110" counts the references in rhs.o, not
     program-wide *)
  let counts : (string * string * string * string, int) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (name, (info : Collect.pu_info)) ->
      let pu = info.Collect.p_pu in
      List.iter
        (fun (a : Collect.access) ->
          if a.Collect.ac_via = None then begin
            let scope = if is_global a.Collect.ac_st then "@" else name in
            let arr = Ir.st_name m pu a.Collect.ac_st in
            let key =
              (scope, arr, Mode.to_string a.Collect.ac_mode, pu.Ir.pu_object)
            in
            Hashtbl.replace counts key
              (1 + try Hashtbl.find counts key with Not_found -> 0)
          end)
        info.Collect.p_accesses)
    infos;
  let rows = ref [] in
  let display = display_memo () in
  List.iter
    (fun (name, (info : Collect.pu_info)) ->
      let pu = info.Collect.p_pu in
      List.iter
        (fun (a : Collect.access) ->
          if a.Collect.ac_via = None then begin
            let st = a.Collect.ac_st in
            let scope = if is_global st then "@" else name in
            let arr = Ir.st_name m pu st in
            let mode = Mode.to_string a.Collect.ac_mode in
            let references =
              try Hashtbl.find counts (scope, arr, mode, pu.Ir.pu_object)
              with Not_found -> 1
            in
            let entry = Ir.st_entry m pu st in
            let symtab = if is_global st then m.Ir.m_global else pu.Ir.pu_symtab in
            let tot = Symtab.total_elems symtab entry.Symtab.st_ty in
            let bytes = Symtab.size_bytes symtab entry.Symtab.st_ty in
            let lb, ub, stride =
              display_bounds display m pu st a.Collect.ac_region
            in
            let row =
              {
                Rgnfile.Row.scope;
                array = arr;
                file = pu.Ir.pu_object;
                mode;
                references;
                dimensions = List.length (Collect.extents_of m pu st);
                lb;
                ub;
                stride;
                element_size = Symtab.elem_size symtab entry.Symtab.st_ty;
                data_type =
                  Lang.Ast.dtype_name (Symtab.dtype_of_ty symtab entry.Symtab.st_ty);
                dim_size = dim_size_str m pu st;
                tot_size = tot;
                size_bytes = bytes;
                mem_loc = Printf.sprintf "%x" entry.Symtab.st_mem_loc;
                acc_density = Rgnfile.Row.density ~references ~size_bytes:bytes;
                line = Lang.Loc.line a.Collect.ac_loc;
                props =
                  Lang.Iprop.flags_token
                    (Region.assumed_flags a.Collect.ac_region);
              }
            in
            rows := row :: !rows
          end)
        info.Collect.p_accesses)
    infos;
  let rows = List.rev !rows in
  (* ---------------------------------------------------------------- *)
  let dgn =
    {
      Rgnfile.Files.dgn_sources =
        List.map
          (fun f ->
            let lang =
              match Filename.extension f with ".c" -> "c" | _ -> "fortran"
            in
            (f, lang))
          m.Ir.m_program.Lang.Sema.prog_files;
      dgn_procs =
        List.map
          (fun pu ->
            (pu.Ir.pu_name, pu.Ir.pu_file, Lang.Loc.line pu.Ir.pu_loc))
          m.Ir.m_pus;
      dgn_edges =
        List.map
          (fun (cs : Callgraph.callsite) ->
            (cs.Callgraph.cs_caller, cs.Callgraph.cs_callee,
             Lang.Loc.line cs.Callgraph.cs_loc))
          (Callgraph.callsites cg);
    }
  in
  let summaries_list =
    List.filter_map
      (fun (name, _) -> Option.map (fun s -> (name, s)) (summaries name))
      infos
  in
  {
    r_module = m;
    r_callgraph = cg;
    r_infos = infos;
    r_tables = tables;
    r_summaries = summaries_list;
    r_rows = rows;
    r_dgn = dgn;
    r_cfgs = cfgs;
  }

let summary_of result name = List.assoc name result.r_summaries

let write_outputs result ~dir ~project =
  let path name = Filename.concat dir name in
  let rgn = path (project ^ ".rgn") in
  Obs.Span.with_ ~cat:"io" ~name:"emit:rgn" (fun () ->
      Rgnfile.Files.save ~path:rgn (Rgnfile.Files.write_rgn result.r_rows));
  let dgnp = path (project ^ ".dgn") in
  Obs.Span.with_ ~cat:"io" ~name:"emit:dgn" (fun () ->
      Rgnfile.Files.save ~path:dgnp (Rgnfile.Files.write_dgn result.r_dgn));
  let cfgp = path (project ^ ".cfg") in
  let blocks =
    List.concat_map
      (fun (proc, cfg) ->
        Array.to_list
          (Array.map
             (fun (b : Cfg.block) ->
               {
                 Rgnfile.Files.cb_proc = proc;
                 cb_id = b.Cfg.id;
                 cb_label = b.Cfg.label;
                 cb_succs = b.Cfg.succs;
               })
             cfg.Cfg.blocks))
      result.r_cfgs
  in
  Obs.Span.with_ ~cat:"io" ~name:"emit:cfg" (fun () ->
      Rgnfile.Files.save ~path:cfgp (Rgnfile.Files.write_cfg blocks));
  [ rgn; dgnp; cfgp ]
