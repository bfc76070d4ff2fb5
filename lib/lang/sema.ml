module String_map = Map.Make (String)

type var_class =
  | Local
  | Formal
  | Global of string

type array_sig = {
  a_type : Ast.dtype;
  a_dims : (int option * int option) list;
  a_coarray : bool;
  a_contiguous : bool;
  a_iprop : Iprop.t;
  a_decl_loc : Loc.t;
}

type symbol =
  | Sym_scalar of Ast.dtype * var_class
  | Sym_array of array_sig * var_class
  | Sym_const of int

type proc_info = {
  pi_proc : Ast.proc;
  pi_symbols : symbol String_map.t;
  pi_file : string;
  pi_object : string;
  pi_language : Ast.language;
}

type program = {
  prog_procs : proc_info String_map.t;
  prog_order : string list;
  prog_globals : (array_sig * string) String_map.t;
  prog_global_scalars : (Ast.dtype * string) String_map.t;
  prog_files : string list;
  prog_warnings : Diag.t list;
}

let intrinsics =
  [
    "mod"; "abs"; "min"; "max"; "sqrt"; "exp"; "log"; "sin"; "cos"; "tan";
    "dble"; "real"; "int"; "float"; "nint"; "sign"; "dabs"; "dsqrt"; "dexp";
    "dlog"; "fabs"; "pow"; "ceil"; "floor"; "this_image"; "num_images";
  ]

let is_intrinsic n = List.mem (String.lowercase_ascii n) intrinsics

let object_name file =
  let base = Filename.remove_extension (Filename.basename file) in
  base ^ ".o"

(* ------------------------------------------------------------------ *)
(* Constant folding *)

let rec const_eval env e =
  match e with
  | Ast.Int_lit n -> Some n
  | Ast.Var_ref (n, _) -> (
    match String_map.find_opt n env with
    | Some (Sym_const v) -> Some v
    | _ -> None)
  | Ast.Unop (Ast.Neg, e) -> Option.map (fun v -> -v) (const_eval env e)
  | Ast.Binop (op, a, b) -> (
    match const_eval env a, const_eval env b with
    | Some x, Some y -> (
      match op with
      | Ast.Add -> Some (x + y)
      | Ast.Sub -> Some (x - y)
      | Ast.Mul -> Some (x * y)
      | Ast.Div -> if y = 0 then None else Some (x / y)
      | Ast.Mod -> if y = 0 then None else Some (x mod y)
      | Ast.Pow ->
        if y < 0 then None
        else
          let rec go acc i = if i = 0 then acc else go (acc * x) (i - 1) in
          Some (go 1 y)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Implicit Fortran typing *)

let implicit_dtype name =
  if String.length name > 0 && name.[0] >= 'i' && name.[0] <= 'n' then
    Ast.Int_t
  else Ast.Real_t

(* ------------------------------------------------------------------ *)

let fold_dims env loc dims =
  List.map
    (fun { Ast.dim_lo; dim_hi; dim_assumed_shape = _ } ->
      let lo = const_eval env dim_lo in
      let hi = match dim_hi with None -> None | Some e -> const_eval env e in
      ignore loc;
      (lo, hi))
    dims

let sig_of_decl ?(iprop = Iprop.none) env (d : Ast.decl) =
  {
    a_type = d.Ast.decl_type;
    a_dims = fold_dims env d.Ast.decl_loc d.Ast.decl_dims;
    a_coarray = d.Ast.decl_coarray;
    a_contiguous =
      not (List.exists (fun dm -> dm.Ast.dim_assumed_shape) d.Ast.decl_dims);
    a_iprop = iprop;
    a_decl_loc = d.Ast.decl_loc;
  }

let sig_equal a b = a.a_type = b.a_type && a.a_dims = b.a_dims

(* ------------------------------------------------------------------ *)
(* Name collection over statements: every referenced identifier *)

let rec expr_names acc e =
  match e with
  | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Str_lit _ | Ast.Logic_lit _ -> acc
  | Ast.Var_ref (n, _) -> n :: acc
  | Ast.Array_ref (n, idx, _) | Ast.Call_expr (n, idx, _) ->
    List.fold_left expr_names (n :: acc) idx
  | Ast.Coarray_ref (n, idx, img, _) ->
    expr_names (List.fold_left expr_names (n :: acc) idx) img
  | Ast.Binop (_, a, b) -> expr_names (expr_names acc a) b
  | Ast.Unop (_, e) -> expr_names acc e

let rec stmt_names acc s =
  match s with
  | Ast.Assign (lv, e, _) ->
    let acc =
      match lv with
      | Ast.Lvar (n, _) -> n :: acc
      | Ast.Larr (n, idx, _) -> List.fold_left expr_names (n :: acc) idx
      | Ast.Lcoarr (n, idx, img, _) ->
        expr_names (List.fold_left expr_names (n :: acc) idx) img
    in
    expr_names acc e
  | Ast.If (c, t, e, _) ->
    let acc = expr_names acc c in
    let acc = List.fold_left stmt_names acc t in
    List.fold_left stmt_names acc e
  | Ast.Do d ->
    let acc = d.Ast.do_var :: acc in
    let acc = expr_names acc d.Ast.do_lo in
    let acc = expr_names acc d.Ast.do_hi in
    let acc =
      match d.Ast.do_step with None -> acc | Some e -> expr_names acc e
    in
    List.fold_left stmt_names acc d.Ast.do_body
  | Ast.While (c, body, _) ->
    List.fold_left stmt_names (expr_names acc c) body
  | Ast.Call (_, args, _) -> List.fold_left expr_names acc args
  | Ast.Return (None, _) | Ast.Nop _ -> acc
  | Ast.Return (Some e, _) -> expr_names acc e
  | Ast.Print (es, _) -> List.fold_left expr_names acc es

(* ------------------------------------------------------------------ *)
(* Body rewriting: Array_ref -> Call_expr when the name is not an array *)

let rec rewrite_expr env proc_names e =
  let recur = rewrite_expr env proc_names in
  match e with
  | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Str_lit _ | Ast.Logic_lit _
  | Ast.Var_ref _ ->
    e
  | Ast.Array_ref (n, idx, loc) -> (
    let idx = List.map recur idx in
    match String_map.find_opt n env with
    | Some (Sym_array (s, _)) ->
      if List.length idx <> List.length s.a_dims then
        Diag.error loc "array %s has rank %d but is indexed with %d subscripts"
          n (List.length s.a_dims) (List.length idx);
      Ast.Array_ref (n, idx, loc)
    | Some (Sym_scalar _) ->
      Diag.error loc "scalar %s used with subscripts" n
    | Some (Sym_const _) -> Diag.error loc "constant %s used with subscripts" n
    | None ->
      if is_intrinsic n || List.mem n proc_names then Ast.Call_expr (n, idx, loc)
      else Diag.error loc "unknown array or function %s" n)
  | Ast.Coarray_ref (n, idx, img, loc) -> (
    let idx = List.map recur idx in
    let img = recur img in
    match String_map.find_opt n env with
    | Some (Sym_array (s, _)) ->
      if not s.a_coarray then
        Diag.error loc "%s is not a coarray (no codimension declared)" n;
      if List.length idx <> List.length s.a_dims then
        Diag.error loc "coarray %s has rank %d but is indexed with %d subscripts"
          n (List.length s.a_dims) (List.length idx);
      Ast.Coarray_ref (n, idx, img, loc)
    | _ -> Diag.error loc "%s is not a coarray" n)
  | Ast.Call_expr (n, args, loc) -> Ast.Call_expr (n, List.map recur args, loc)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, recur a, recur b)
  | Ast.Unop (op, e) -> Ast.Unop (op, recur e)

let rec rewrite_stmt env proc_names s =
  let re = rewrite_expr env proc_names in
  let rs = rewrite_stmt env proc_names in
  match s with
  | Ast.Assign (lv, e, loc) ->
    let lv =
      match lv with
      | Ast.Lvar _ -> lv
      | Ast.Larr (n, idx, lloc) -> (
        match String_map.find_opt n env with
        | Some (Sym_array (s, _)) ->
          if List.length idx <> List.length s.a_dims then
            Diag.error lloc
              "array %s has rank %d but is indexed with %d subscripts" n
              (List.length s.a_dims) (List.length idx);
          Ast.Larr (n, List.map re idx, lloc)
        | _ -> Diag.error lloc "assignment to subscripted non-array %s" n)
      | Ast.Lcoarr (n, idx, img, lloc) -> (
        match String_map.find_opt n env with
        | Some (Sym_array (s, _)) when s.a_coarray ->
          Ast.Lcoarr (n, List.map re idx, re img, lloc)
        | _ -> Diag.error lloc "%s is not a coarray" n)
    in
    Ast.Assign (lv, re e, loc)
  | Ast.If (c, t, e, loc) -> Ast.If (re c, List.map rs t, List.map rs e, loc)
  | Ast.Do d ->
    Ast.Do
      {
        d with
        Ast.do_lo = re d.Ast.do_lo;
        do_hi = re d.Ast.do_hi;
        do_step = Option.map re d.Ast.do_step;
        do_body = List.map rs d.Ast.do_body;
      }
  | Ast.While (c, body, loc) -> Ast.While (re c, List.map rs body, loc)
  | Ast.Call (n, args, loc) -> Ast.Call (n, List.map re args, loc)
  | Ast.Return (e, loc) -> Ast.Return (Option.map re e, loc)
  | Ast.Print (es, loc) -> Ast.Print (List.map re es, loc)
  | Ast.Nop _ -> s

(* ------------------------------------------------------------------ *)

(* Separate compilation.  Pass 1 (global registrations) reads one unit
   alone and yields its [interface]; [link] merges the interfaces in unit
   order into the [env] pass 2 reads; pass 2 ([check_unit]) then checks one
   unit against that environment.  Everything pass 2 (and the lowering
   after it) reads from other units is in [env], which is what lets a
   caller reuse a unit's checked procedures while [env_digest] is
   unchanged. *)

type global_decl =
  | G_scalar of string * Ast.dtype * string
  | G_array of string * array_sig * string

type interface = {
  if_file : string;
  if_globals : global_decl list;
  if_procs : (string * Ast.proc_kind) list;
}

type env = {
  env_globals : (array_sig * string) String_map.t;
  env_global_scalars : (Ast.dtype * string) String_map.t;
  env_procs : (string * Ast.proc_kind) list;
}

type body = {
  b_file : string;
  b_procs : proc_info list;
  b_warnings : Diag.t list;
}

let unit_consts (u : Ast.unit_) =
  List.fold_left
    (fun env (n, e) ->
      match const_eval env e with
      | Some v -> String_map.add n (Sym_const v) env
      | None -> env)
    String_map.empty u.Ast.unit_consts

(* pass 1 *)
let interface (u : Ast.unit_) =
  let regs = ref [] in
  let register ~iprop env block (d : Ast.decl) =
    regs :=
      (if d.Ast.decl_dims = [] then
         G_scalar (d.Ast.decl_name, d.Ast.decl_type, block)
       else G_array (d.Ast.decl_name, sig_of_decl ~iprop env d, block))
      :: !regs
  in
  let unit_consts = unit_consts u in
  let iprop_of n = Iprop.lookup u.Ast.unit_iprops n in
  List.iter
    (fun (d : Ast.decl) ->
      let block = Option.value d.Ast.decl_common ~default:"global" in
      register ~iprop:(iprop_of d.Ast.decl_name) unit_consts block d)
    u.Ast.unit_globals;
  (* Fortran COMMON declarations live inside procedures *)
  List.iter
    (fun (p : Ast.proc) ->
      let consts =
        List.fold_left
          (fun env (n, e) ->
            match const_eval env e with
            | Some v -> String_map.add n (Sym_const v) env
            | None -> env)
          unit_consts p.Ast.proc_consts
      in
      List.iter
        (fun (d : Ast.decl) ->
          match d.Ast.decl_common with
          | Some block ->
            register ~iprop:(iprop_of d.Ast.decl_name) consts block d
          | None -> ())
        p.Ast.proc_decls)
    u.Ast.unit_procs;
  {
    if_file = u.Ast.unit_file;
    if_globals = List.rev !regs;
    if_procs =
      List.map (fun p -> (p.Ast.proc_name, p.Ast.proc_kind)) u.Ast.unit_procs;
  }

let link ifaces =
  let globals = ref String_map.empty in
  let global_scalars = ref String_map.empty in
  let merge = function
    | G_scalar (name, t, block) ->
      global_scalars := String_map.add name (t, block) !global_scalars
    | G_array (name, s, block) -> (
      match String_map.find_opt name !globals with
      | Some (existing, _) when not (sig_equal existing s) ->
        Diag.error s.a_decl_loc "inconsistent COMMON declarations for %s" name
      | Some (existing, eblock) ->
        (* assertions from every declaring unit conjoin *)
        globals :=
          String_map.add name
            ({ s with a_iprop = Iprop.meet existing.a_iprop s.a_iprop }, eblock)
            !globals
      | None -> globals := String_map.add name (s, block) !globals)
  in
  List.iter (fun i -> List.iter merge i.if_globals) ifaces;
  {
    env_globals = !globals;
    env_global_scalars = !global_scalars;
    env_procs = List.concat_map (fun i -> i.if_procs) ifaces;
  }

(* A canonical image of [env]: maps are walked in key order, so the bytes
   depend only on the bindings, never on the tree shape insertion order
   left behind. *)
let env_digest env =
  let b = Buffer.create 4096 in
  let str s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let int n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ';'
  in
  let opt = function None -> Buffer.add_char b '?' | Some n -> int n in
  let bool v = Buffer.add_char b (if v then 'T' else 'F') in
  let dtype d = str (Ast.dtype_name d) in
  let loc (l : Loc.t) =
    str l.Loc.file;
    int l.Loc.line;
    int l.Loc.col
  in
  let iprop (p : Iprop.t) =
    opt p.Iprop.ip_lo;
    opt p.Iprop.ip_hi;
    bool p.Iprop.ip_monotonic;
    bool p.Iprop.ip_injective
  in
  Buffer.add_string b "arrays\n";
  String_map.iter
    (fun name (s, block) ->
      str name;
      str block;
      dtype s.a_type;
      int (List.length s.a_dims);
      List.iter
        (fun (lo, hi) ->
          opt lo;
          opt hi)
        s.a_dims;
      bool s.a_coarray;
      bool s.a_contiguous;
      iprop s.a_iprop;
      loc s.a_decl_loc)
    env.env_globals;
  Buffer.add_string b "scalars\n";
  String_map.iter
    (fun name (t, block) ->
      str name;
      dtype t;
      str block)
    env.env_global_scalars;
  Buffer.add_string b "procs\n";
  List.iter
    (fun (name, kind) ->
      str name;
      match kind with
      | Ast.Program -> Buffer.add_char b 'P'
      | Ast.Subroutine -> Buffer.add_char b 'S'
      | Ast.Function t ->
        Buffer.add_char b 'F';
        dtype t)
    env.env_procs;
  Digest.string (Buffer.contents b)

(* pass 2 over one procedure *)
let check_proc linked ~proc_names ~warn (u : Ast.unit_) unit_consts
    (p : Ast.proc) =
  let env = ref unit_consts in
  let add n sym = env := String_map.add n sym !env in
  (* constants first: bounds may use them *)
  List.iter
    (fun (n, e) ->
      match const_eval !env e with
      | Some v -> add n (Sym_const v)
      | None ->
        warn
          (Diag.warning p.Ast.proc_loc
             "non-integer parameter %s ignored by the analysis" n))
    p.Ast.proc_consts;
  (* globals visible everywhere (Fortran COMMON is program-wide here: a
     deliberate MiniF simplification) *)
  String_map.iter
    (fun n (s, block) -> add n (Sym_array (s, Global block)))
    linked.env_globals;
  String_map.iter
    (fun n (t, block) -> add n (Sym_scalar (t, Global block)))
    linked.env_global_scalars;
  (* declarations *)
  List.iter
    (fun (d : Ast.decl) ->
      let cls =
        if List.mem d.Ast.decl_name p.Ast.proc_params then Formal
        else
          match d.Ast.decl_common with
          | Some b -> Global b
          | None -> Local
      in
      match cls with
      | Global _ -> () (* already registered *)
      | _ ->
        if d.Ast.decl_dims = [] then begin
          (* a PARAMETER constant may carry a type declaration too; the
             constant binding wins *)
          match String_map.find_opt d.Ast.decl_name !env with
          | Some (Sym_const _) -> ()
          | _ -> add d.Ast.decl_name (Sym_scalar (d.Ast.decl_type, cls))
        end
        else
          add d.Ast.decl_name
            (Sym_array
               ( sig_of_decl
                   ~iprop:(Iprop.lookup u.Ast.unit_iprops d.Ast.decl_name)
                   !env d,
                 cls )))
    p.Ast.proc_decls;
  (* undeclared formals: implicit typing *)
  List.iter
    (fun prm ->
      if not (String_map.mem prm !env) then
        add prm (Sym_scalar (implicit_dtype prm, Formal)))
    p.Ast.proc_params;
  (* function name acts as the return-value scalar *)
  (match p.Ast.proc_kind with
  | Ast.Function t -> add p.Ast.proc_name (Sym_scalar (t, Local))
  | Ast.Program | Ast.Subroutine -> ());
  (* undeclared referenced names: Fortran implicit scalars *)
  let referenced =
    List.fold_left stmt_names [] p.Ast.proc_body |> List.sort_uniq String.compare
  in
  List.iter
    (fun n ->
      if
        (not (String_map.mem n !env))
        && (not (List.mem n proc_names))
        && not (is_intrinsic n)
      then
        if u.Ast.unit_language = Ast.Fortran then
          add n (Sym_scalar (implicit_dtype n, Local))
        else
          Diag.error p.Ast.proc_loc "undeclared identifier %s in %s" n
            p.Ast.proc_name)
    referenced;
  let body = List.map (rewrite_stmt !env proc_names) p.Ast.proc_body in
  {
    pi_proc = { p with Ast.proc_body = body };
    pi_symbols = !env;
    pi_file = u.Ast.unit_file;
    pi_object = object_name u.Ast.unit_file;
    pi_language = u.Ast.unit_language;
  }

type linker = {
  l_env : env;
  l_proc_names : string list;
  mutable l_procs : proc_info String_map.t;
  mutable l_order : string list;  (* newest first *)
  mutable l_files : string list;  (* newest first *)
  mutable l_warnings : Diag.t list;  (* newest first *)
}

let linker env =
  {
    l_env = env;
    l_proc_names = List.map fst env.env_procs;
    l_procs = String_map.empty;
    l_order = [];
    l_files = [];
    l_warnings = [];
  }

let define l pi =
  let p = pi.pi_proc in
  if String_map.mem p.Ast.proc_name l.l_procs then
    Diag.error p.Ast.proc_loc "duplicate procedure %s" p.Ast.proc_name;
  l.l_procs <- String_map.add p.Ast.proc_name pi l.l_procs;
  l.l_order <- p.Ast.proc_name :: l.l_order

let note_unit l b =
  l.l_files <- b.b_file :: l.l_files;
  l.l_warnings <- List.rev_append b.b_warnings l.l_warnings

(* Each procedure is defined as soon as it is checked, so a duplicate
   fails before the next procedure's semantic errors, as in one pass. *)
let check_unit l (u : Ast.unit_) =
  let warnings = ref [] in
  let warn d = warnings := d :: !warnings in
  let consts = unit_consts u in
  let procs =
    List.map
      (fun p ->
        let pi =
          check_proc l.l_env ~proc_names:l.l_proc_names ~warn u consts p
        in
        define l pi;
        pi)
      u.Ast.unit_procs
  in
  let b =
    { b_file = u.Ast.unit_file; b_procs = procs; b_warnings = List.rev !warnings }
  in
  note_unit l b;
  b

let add_body l b =
  List.iter (define l) b.b_procs;
  note_unit l b

let finish l =
  {
    prog_procs = l.l_procs;
    prog_order = List.rev l.l_order;
    prog_globals = l.l_env.env_globals;
    prog_global_scalars = l.l_env.env_global_scalars;
    prog_files = List.rev l.l_files;
    prog_warnings = List.rev l.l_warnings;
  }

let analyze units =
  let l = linker (link (List.map interface units)) in
  List.iter (fun u -> ignore (check_unit l u)) units;
  finish l
