(* Reference implementations of the output layer: the straightforward,
   list-based writers and row builder the streaming production code
   replaced.  Every function here must produce exactly the bytes (or rows)
   of its production counterpart; test_output checks that on the corpora
   and on adversarial inputs. *)

open Whirl
open Regions

(* ------------------------------------------------------------------ *)
(* CSV: one field list per record *)

let needs_quoting c = c = ',' || c = '"' || c = '\n'

let add_field buf f =
  if not (String.exists needs_quoting f) then Buffer.add_string buf f
  else begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      f;
    Buffer.add_char buf '"'
  end

let add_row buf fields =
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      add_field buf f)
    fields;
  Buffer.add_char buf '\n'

let write_rgn rows =
  let buf = Buffer.create 4096 in
  add_row buf Rgnfile.Row.header;
  List.iter (fun r -> add_row buf (Rgnfile.Row.to_fields r)) rows;
  Buffer.contents buf

let write_dgn (d : Rgnfile.Files.dgn) =
  let buf = Buffer.create 512 in
  List.iter
    (fun (path, lang) -> add_row buf [ "source"; path; lang ])
    d.Rgnfile.Files.dgn_sources;
  List.iter
    (fun (name, file, line) ->
      add_row buf [ "proc"; name; file; string_of_int line ])
    d.Rgnfile.Files.dgn_procs;
  List.iter
    (fun (caller, callee, line) ->
      add_row buf [ "edge"; caller; callee; string_of_int line ])
    d.Rgnfile.Files.dgn_edges;
  Buffer.contents buf

let write_cfg (blocks : Rgnfile.Files.cfg_block list) =
  let buf = Buffer.create 512 in
  List.iter
    (fun (b : Rgnfile.Files.cfg_block) ->
      add_row buf
        [
          b.Rgnfile.Files.cb_proc;
          string_of_int b.Rgnfile.Files.cb_id;
          b.Rgnfile.Files.cb_label;
          String.concat ";" (List.map string_of_int b.Rgnfile.Files.cb_succs);
        ])
    blocks;
  Buffer.contents buf

let cfg_blocks cfgs =
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
    cfgs

(* ------------------------------------------------------------------ *)
(* Reports *)

let add_quoted b s =
  Buffer.add_char b '"';
  Obs.Json.add_escaped b s;
  Buffer.add_char b '"'

let add_string_array b cells =
  Buffer.add_char b '[';
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ", ";
      add_quoted b c)
    cells;
  Buffer.add_char b ']'

let add_report b (t : Analyses.Report.t) =
  Buffer.add_string b "    {\n      \"analysis\": ";
  add_quoted b t.r_analysis;
  Buffer.add_string b ",\n      \"summary\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      add_quoted b k;
      Buffer.add_string b ": ";
      add_quoted b v)
    t.r_summary;
  Buffer.add_string b "},\n      \"columns\": ";
  add_string_array b t.r_columns;
  Buffer.add_string b ",\n      \"rows\": [";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n        ";
      add_string_array b row)
    t.r_rows;
  if t.r_rows <> [] then Buffer.add_string b "\n      ";
  Buffer.add_string b "]\n    }"

let json_of_reports reports =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema_version\": ";
  Buffer.add_string b (string_of_int Analyses.Report.schema_version);
  Buffer.add_string b ",\n  \"reports\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      add_report b r)
    reports;
  if reports <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

(* one string token and one cut per line *)
let render ppf (t : Analyses.Report.t) =
  Format.fprintf ppf "== analysis: %s ==@," t.r_analysis;
  let b = Buffer.create 256 in
  let emit () =
    Format.pp_print_string ppf (Buffer.contents b);
    Format.pp_print_cut ppf ();
    Buffer.clear b
  in
  if t.r_summary <> [] then begin
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b "  ";
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v)
      t.r_summary;
    emit ()
  end;
  if t.r_columns <> [] then begin
    let ncols = List.length t.r_columns in
    let widths = Array.make ncols 0 in
    let measure row =
      List.iteri
        (fun i c ->
          if i < ncols then widths.(i) <- max widths.(i) (String.length c))
        row
    in
    measure t.r_columns;
    List.iter measure t.r_rows;
    let line row =
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string b "  ";
          Buffer.add_string b c;
          if i < ncols - 1 then
            for _ = String.length c to widths.(i) - 1 do
              Buffer.add_char b ' '
            done)
        row;
      emit ()
    in
    line t.r_columns;
    List.iter line t.r_rows
  end

(* ------------------------------------------------------------------ *)
(* The .rgn rows of direct accesses, recomputing every column per access *)

let source_lows m pu st =
  match Ir.ty_of m pu st with
  | Symtab.Ty_array { dims; _ } ->
    let lows = List.map (fun (lo, _) -> Option.value lo ~default:0) dims in
    (match pu.Ir.pu_lang with
    | Lang.Ast.Fortran -> List.rev lows
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

let display_bounds m pu st region =
  let lows = source_lows m pu st in
  let dims = Region.dim_list region in
  let lows =
    if List.length lows = List.length dims then lows
    else List.map (fun _ -> 0) dims
  in
  ( String.concat "|" (List.map2 (fun lo d -> bound_str lo d.Region.lb) lows dims),
    String.concat "|" (List.map2 (fun lo d -> bound_str lo d.Region.ub) lows dims),
    String.concat "|" (List.map (fun d -> stride_str d.Region.stride) dims) )

let dim_size_str m pu st =
  Ipa.Collect.extents_of m pu st
  |> List.map (fun e -> string_of_int (Option.value e ~default:0))
  |> String.concat "|"

let rows (m : Ir.module_) (infos : (string * Ipa.Collect.pu_info) list) =
  let is_global = Ir.is_global_idx in
  let direct f =
    List.iter
      (fun (name, (info : Ipa.Collect.pu_info)) ->
        List.iter
          (fun (a : Ipa.Collect.access) ->
            if a.Ipa.Collect.ac_via = None then f name info.Ipa.Collect.p_pu a)
          info.Ipa.Collect.p_accesses)
      infos
  in
  let key name pu (a : Ipa.Collect.access) =
    let st = a.Ipa.Collect.ac_st in
    ( (if is_global st then "@" else name),
      Ir.st_name m pu st,
      Mode.to_string a.Ipa.Collect.ac_mode,
      pu.Ir.pu_object )
  in
  let counts = Hashtbl.create 64 in
  direct (fun name pu a ->
      let k = key name pu a in
      Hashtbl.replace counts k
        (1 + Option.value (Hashtbl.find_opt counts k) ~default:0));
  let rows = ref [] in
  direct (fun name pu a ->
      let st = a.Ipa.Collect.ac_st in
      let ((scope, arr, mode, _) as k) = key name pu a in
      let references = Hashtbl.find counts k in
      let entry = Ir.st_entry m pu st in
      let symtab = if is_global st then m.Ir.m_global else pu.Ir.pu_symtab in
      let ty = entry.Symtab.st_ty in
      let bytes = Symtab.size_bytes symtab ty in
      let lb, ub, stride = display_bounds m pu st a.Ipa.Collect.ac_region in
      rows :=
        {
          Rgnfile.Row.scope;
          array = arr;
          file = pu.Ir.pu_object;
          mode;
          references;
          dimensions = List.length (Ipa.Collect.extents_of m pu st);
          lb;
          ub;
          stride;
          element_size = Symtab.elem_size symtab ty;
          data_type = Lang.Ast.dtype_name (Symtab.dtype_of_ty symtab ty);
          dim_size = dim_size_str m pu st;
          tot_size = Symtab.total_elems symtab ty;
          size_bytes = bytes;
          mem_loc = Printf.sprintf "%x" entry.Symtab.st_mem_loc;
          acc_density = Rgnfile.Row.density ~references ~size_bytes:bytes;
          line = Lang.Loc.line a.Ipa.Collect.ac_loc;
          props =
            Lang.Iprop.flags_token (Region.assumed_flags a.Ipa.Collect.ac_region);
        }
        :: !rows);
  List.rev !rows
