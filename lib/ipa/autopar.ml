open Whirl

type suggestion = {
  sg_proc : string;
  sg_line : int;
  sg_file : string;
  sg_directive : string;
  sg_ivar : string;
}

type rejection = {
  rj_proc : string;
  rj_line : int;
  rj_arrays : string list;
}

type report = {
  rp_suggestions : suggestion list;
  rp_rejections : rejection list;
}

(* outermost DO loops of a PU: direct children of any non-loop construct *)
let outermost_loops pu =
  let loops = ref [] in
  let rec walk inside_loop (w : Wn.t) =
    match w.Wn.operator with
    | Wn.OPR_DO_LOOP ->
      if not inside_loop then loops := w :: !loops;
      walk true (Wn.kid w 4)
    | Wn.OPR_BLOCK | Wn.OPR_FUNC_ENTRY | Wn.OPR_IF | Wn.OPR_WHILE_DO ->
      Array.iter (walk inside_loop) w.Wn.kids
    | _ -> ()
  in
  walk false (Ir.body pu);
  List.rev !loops

(* inner induction variables also need privatization *)
let inner_ivars m pu (loop : Wn.t) =
  let ivars = ref [] in
  Wn.preorder
    (fun w ->
      if w.Wn.operator = Wn.OPR_DO_LOOP then begin
        let name = Ir.st_name m pu (Wn.kid w 0).Wn.st_idx in
        if not (List.mem name !ivars) then ivars := name :: !ivars
      end)
    (Wn.kid loop 4);
  List.rev !ivars

(* Reduction recognition: a scalar assigned exactly once in the body, by
   "x = x op e" with op one of plus/minus/times, or "x = max/min(x, e)",
   where x is not read inside e, is an OpenMP reduction rather than a
   privatization candidate. *)
let reduction_op m pu body st =
  let stores = ref [] in
  Wn.preorder
    (fun w ->
      if w.Wn.operator = Wn.OPR_STID && w.Wn.st_idx = st then
        stores := w :: !stores)
    body;
  match !stores with
  | [ w ] -> (
    let rhs = Wn.kid w 0 in
    let reads_st e =
      Wn.count (fun n -> n.Wn.operator = Wn.OPR_LDID && n.Wn.st_idx = st) e
    in
    let is_self e = e.Wn.operator = Wn.OPR_LDID && e.Wn.st_idx = st in
    ignore (Ir.st_name m pu st);
    match rhs.Wn.operator with
    | Wn.OPR_ADD when is_self (Wn.kid rhs 0) && reads_st (Wn.kid rhs 1) = 0 ->
      Some "+"
    | Wn.OPR_ADD when is_self (Wn.kid rhs 1) && reads_st (Wn.kid rhs 0) = 0 ->
      Some "+"
    | Wn.OPR_SUB when is_self (Wn.kid rhs 0) && reads_st (Wn.kid rhs 1) = 0 ->
      Some "-"
    | Wn.OPR_MPY when is_self (Wn.kid rhs 0) && reads_st (Wn.kid rhs 1) = 0 ->
      Some "*"
    | Wn.OPR_MPY when is_self (Wn.kid rhs 1) && reads_st (Wn.kid rhs 0) = 0 ->
      Some "*"
    | Wn.OPR_INTRINSIC_OP
      when (rhs.Wn.str_val = "max" || rhs.Wn.str_val = "min")
           && Wn.kid_count rhs = 2
           && (is_self (Wn.kid rhs 0) || is_self (Wn.kid rhs 1)) ->
      Some rhs.Wn.str_val
    | _ -> None)
  | _ -> None

let directive_for lang ~ivar ~privates ~reductions =
  let privates =
    List.filter (fun p -> p <> ivar) privates |> List.sort_uniq String.compare
  in
  let clauses =
    (if privates = [] then []
     else [ Printf.sprintf "private(%s)" (String.concat ", " privates) ])
    @ List.map
        (fun (op, name) -> Printf.sprintf "reduction(%s:%s)" op name)
        reductions
  in
  let tail = if clauses = [] then "" else " " ^ String.concat " " clauses in
  match lang with
  | Lang.Ast.Fortran -> "!$omp parallel do" ^ tail
  | Lang.Ast.C -> "#pragma omp parallel for" ^ tail

let plan (m : Ir.module_) summaries =
  let suggestions = ref [] and rejections = ref [] in
  List.iter
    (fun pu ->
      List.iter
        (fun loop ->
          let verdict = Parallel.loop_parallel m summaries pu loop in
          let line = Lang.Loc.line loop.Wn.linenum in
          if verdict.Parallel.lv_parallel then begin
            let ivar = Ir.st_name m pu (Wn.kid loop 0).Wn.st_idx in
            let body = Wn.kid loop 4 in
            (* split written scalars into reductions and privates *)
            let reductions = ref [] and privates = ref (inner_ivars m pu loop) in
            List.iter
              (fun st ->
                if st <> (Wn.kid loop 0).Wn.st_idx then
                  let name = Ir.st_name m pu st in
                  match reduction_op m pu body st with
                  | Some op -> reductions := (op, name) :: !reductions
                  | None ->
                    if not (List.mem name !privates) then
                      privates := !privates @ [ name ])
              (Collect.scalar_defs m pu body);
            suggestions :=
              {
                sg_proc = pu.Ir.pu_name;
                sg_line = line;
                sg_file = pu.Ir.pu_file;
                sg_directive =
                  directive_for pu.Ir.pu_lang ~ivar ~privates:!privates
                    ~reductions:(List.rev !reductions);
                sg_ivar = ivar;
              }
              :: !suggestions
          end
          else
            rejections :=
              {
                rj_proc = pu.Ir.pu_name;
                rj_line = line;
                rj_arrays =
                  List.map
                    (fun c -> c.Parallel.c_array)
                    verdict.Parallel.lv_conflicts
                  |> List.sort_uniq String.compare;
              }
              :: !rejections)
        (outermost_loops pu))
    m.Ir.m_pus;
  {
    rp_suggestions = List.rev !suggestions;
    rp_rejections = List.rev !rejections;
  }

let indentation line =
  let n = String.length line in
  let rec go i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then go (i + 1) else i in
  String.sub line 0 (go 0)

let annotate report ~file text =
  let lines = String.split_on_char '\n' text in
  let for_file =
    List.filter (fun s -> Filename.basename s.sg_file = Filename.basename file)
      report.rp_suggestions
  in
  let buf = Buffer.create (String.length text + 256) in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      List.iter
        (fun s ->
          if s.sg_line = lineno then begin
            Buffer.add_string buf (indentation line);
            Buffer.add_string buf s.sg_directive;
            Buffer.add_char buf '\n'
          end)
        for_file;
      Buffer.add_string buf line;
      if lineno < List.length lines then Buffer.add_char buf '\n')
    lines;
  Buffer.contents buf

let render report =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%d parallelizable outermost loop(s), %d rejected\n"
       (List.length report.rp_suggestions)
       (List.length report.rp_rejections));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %s:%d (%s, ivar %s): %s\n" s.sg_file s.sg_line
           s.sg_proc s.sg_ivar s.sg_directive))
    report.rp_suggestions;
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %s line %d: NOT parallel (conflicts on %s)\n"
           r.rj_proc r.rj_line
           (String.concat ", " r.rj_arrays)))
    report.rp_rejections;
  Buffer.contents buf
