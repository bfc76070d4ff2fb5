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

(* What the display needs of one symbol as one PU sees it: the same for
   every access to it, so a pass derives it once per (PU, symbol). *)
type symbol = {
  sy_name : string;
  sy_extents : int option list;
  sy_lows : int list;
}

(* The triplet strings are a function of the source lower bounds and the
   region's dims alone; a pass renders the same few of them for every
   access, so it keeps one memo per run. *)
module Triplets = Hashtbl.Make (struct
  type t = int list * Region.dim list

  (* the regions of one access shape share their dims list, and the
     accesses to one symbol its lows: identity decides most lookups *)
  let equal (l1, d1) (l2, d2) = (d1 == d2 || d1 = d2) && (l1 == l2 || l1 = l2)

  (* constant bounds hash inline; only symbolic ones go to the generic
     hash *)
  let bound_hash = function
    | Region.Bconst x -> x
    | Region.Bsym e -> Hashtbl.hash e
    | Region.Bunknown -> 1

  let hash (lows, dims) =
    let h =
      List.fold_left
        (fun h d ->
          (((h * 31) + bound_hash d.Region.lb) * 31) + bound_hash d.Region.ub)
        0 dims
    in
    List.fold_left (fun h lo -> (h * 17) + lo) h lows land max_int
end)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

(* Passes walk the accesses PU by PU, so [syms] holds the symbols of
   [memo_pu] only. *)
type display_memo = {
  triplets : (string * string * string) Triplets.t;
  mutable memo_pu : Ir.pu option;
  syms : symbol Int_tbl.t;
}

let display_memo () =
  { triplets = Triplets.create 256; memo_pu = None; syms = Int_tbl.create 16 }

let symbol memo m pu st =
  (match memo.memo_pu with
  | Some p when p == pu -> ()
  | _ ->
    Int_tbl.clear memo.syms;
    memo.memo_pu <- Some pu);
  match Int_tbl.find_opt memo.syms st with
  | Some sy -> sy
  | None ->
    let sy =
      {
        sy_name = Ir.st_name m pu st;
        sy_extents = Collect.extents_of m pu st;
        sy_lows = source_lows m pu st;
      }
    in
    Int_tbl.add memo.syms st sy;
    sy

let display_bounds memo ~lows region =
  let dims = Region.dim_list region in
  let lows =
    if List.compare_lengths lows dims = 0 then lows
    else List.map (fun _ -> 0) dims
  in
  let key = (lows, dims) in
  match Triplets.find_opt memo.triplets key with
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
    Triplets.add memo.triplets key strings;
    strings

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

(* A row's (PU, symbol) columns, and the reference counts per mode of its
   (scope, array, object file) *)
type row_facts = {
  f_sym : symbol;
  f_scope : string;
  f_dimensions : int;
  f_element_size : int;
  f_data_type : string;
  f_dim_size : string;
  f_tot_size : int;
  f_size_bytes : int;
  f_mem_loc : string;
  f_counts : int array;
}

let mode_slot = function
  | Mode.USE -> 0
  | Mode.DEF -> 1
  | Mode.FORMAL -> 2
  | Mode.PASSED -> 3
  | Mode.RUSE -> 4
  | Mode.RDEF -> 5

let assemble (m : Ir.module_) cg ~infos ~summaries ~propagated ~cfgs : result =
  let tables =
    List.map
      (fun (name, (info : Collect.pu_info)) ->
        { t_proc = name; t_accesses = info.Collect.p_accesses @ propagated name })
      infos
  in
  (* ---------------------------------------------------------------- *)
  (* Rows *)
  let display = display_memo () in
  (* reference counts per (scope, array, object file) and mode, direct
     accesses only -- Fig 14's "u USE 110" counts the references in rhs.o,
     not program-wide *)
  let counts : (string * string * string, int array) Hashtbl.t =
    Hashtbl.create 1024
  in
  (* every row column but the region's, the reference count and the line
     is a function of (PU, symbol): derived once per pair *)
  let facts_of tbl ~scope_name pu st =
    match Int_tbl.find_opt tbl st with
    | Some f -> f
    | None ->
      let sy = symbol display m pu st in
      let global = Ir.is_global_idx st in
      let scope = if global then "@" else scope_name in
      let entry = Ir.st_entry m pu st in
      let symtab = if global then m.Ir.m_global else pu.Ir.pu_symtab in
      let ty = entry.Symtab.st_ty in
      let key = (scope, sy.sy_name, pu.Ir.pu_object) in
      let f =
        {
          f_sym = sy;
          f_scope = scope;
          f_dimensions = List.length sy.sy_extents;
          f_element_size = Symtab.elem_size symtab ty;
          f_data_type = Lang.Ast.dtype_name (Symtab.dtype_of_ty symtab ty);
          f_dim_size =
            String.concat "|"
              (List.map
                 (fun e -> string_of_int (Option.value e ~default:0))
                 sy.sy_extents);
          f_tot_size = Symtab.total_elems symtab ty;
          f_size_bytes = Symtab.size_bytes symtab ty;
          f_mem_loc = Printf.sprintf "%x" entry.Symtab.st_mem_loc;
          f_counts =
            (match Hashtbl.find_opt counts key with
            | Some c -> c
            | None ->
              let c = Array.make 6 0 (* one per [mode_slot] *) in
              Hashtbl.add counts key c;
              c);
        }
      in
      Int_tbl.add tbl st f;
      f
  in
  let per_pu =
    List.map
      (fun (name, (info : Collect.pu_info)) ->
        let pu = info.Collect.p_pu in
        let tbl = Int_tbl.create 16 in
        List.iter
          (fun (a : Collect.access) ->
            if a.Collect.ac_via = None then
              let f = facts_of tbl ~scope_name:name pu a.Collect.ac_st in
              let slot = mode_slot a.Collect.ac_mode in
              f.f_counts.(slot) <- f.f_counts.(slot) + 1)
          info.Collect.p_accesses;
        (info, tbl))
      infos
  in
  let rows = ref [] in
  List.iter
    (fun ((info : Collect.pu_info), tbl) ->
      let pu = info.Collect.p_pu in
      List.iter
        (fun (a : Collect.access) ->
          if a.Collect.ac_via = None then begin
            let f = Int_tbl.find tbl a.Collect.ac_st in
            let references = f.f_counts.(mode_slot a.Collect.ac_mode) in
            let region = a.Collect.ac_region in
            let lb, ub, stride =
              display_bounds display ~lows:f.f_sym.sy_lows region
            in
            let row =
              {
                Rgnfile.Row.scope = f.f_scope;
                array = f.f_sym.sy_name;
                file = pu.Ir.pu_object;
                mode = Mode.to_string a.Collect.ac_mode;
                references;
                dimensions = f.f_dimensions;
                lb;
                ub;
                stride;
                element_size = f.f_element_size;
                data_type = f.f_data_type;
                dim_size = f.f_dim_size;
                tot_size = f.f_tot_size;
                size_bytes = f.f_size_bytes;
                mem_loc = f.f_mem_loc;
                acc_density =
                  Rgnfile.Row.density ~references ~size_bytes:f.f_size_bytes;
                line = Lang.Loc.line a.Collect.ac_loc;
                props =
                  Lang.Iprop.flags_token (Region.assumed_flags region);
              }
            in
            rows := row :: !rows
          end)
        info.Collect.p_accesses)
    per_pu;
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

let cfg cfgs buf ~yield =
  List.iter
    (fun (proc, cfg) ->
      Array.iter
        (fun (b : Cfg.block) ->
          Rgnfile.Files.add_cfg_block buf ~proc ~id:b.Cfg.id ~label:b.Cfg.label
            ~succs:b.Cfg.succs;
          yield ())
        cfg.Cfg.blocks)
    cfgs

let write_outputs result ~dir ~project =
  let path name = Filename.concat dir name in
  let rgn = path (project ^ ".rgn") in
  Obs.Span.with_ ~cat:"io" ~name:"emit:rgn" (fun () ->
      Rgnfile.Files.save_text ~path:rgn (Rgnfile.Files.rgn result.r_rows));
  let dgnp = path (project ^ ".dgn") in
  Obs.Span.with_ ~cat:"io" ~name:"emit:dgn" (fun () ->
      Rgnfile.Files.save_text ~path:dgnp (Rgnfile.Files.dgn result.r_dgn));
  let cfgp = path (project ^ ".cfg") in
  Obs.Span.with_ ~cat:"io" ~name:"emit:cfg" (fun () ->
      Rgnfile.Files.save_text ~path:cfgp (cfg result.r_cfgs));
  [ rgn; dgnp; cfgp ]
