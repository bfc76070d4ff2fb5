open Whirl
open Regions

type access = {
  ac_st : int;
  ac_mode : Mode.t;
  ac_region : Region.t;
  ac_loc : Lang.Loc.t;
  ac_via : string option;
  ac_sparse : string option;
}

type callsite_arg =
  | Arg_array_whole of int
  | Arg_array_elem of int * Affine.result list
  | Arg_scalar_ref of int
  | Arg_value of Affine.result

type site = {
  s_callee : string;
  s_args : callsite_arg list;
  s_loops : (int * Region.loop_ctx) list;
  s_loc : Lang.Loc.t;
}

type pu_info = {
  p_pu : Ir.pu;
  p_accesses : access list;
  p_sites : site list;
}

(* ------------------------------------------------------------------ *)
(* Stable symbolic variables for scalars *)

let sym_registry : (int * string * int, Linear.Var.t) Hashtbl.t =
  Hashtbl.create 64

let sym_reverse : (int, string * int) Hashtbl.t = Hashtbl.create 64

(* Per-PU collection runs on several domains at once; the registry is the
   one piece of state they share, so it is guarded.  Determinism of the
   variable ids is handled separately by {!intern_module_syms}. *)
let sym_mutex = Mutex.create ()

let sym_var ~m ~pu ~st ~name =
  let key =
    if Ir.is_global_idx st then (m.Ir.m_id, "", st) else (m.Ir.m_id, pu, st)
  in
  Mutex.lock sym_mutex;
  let v =
    match Hashtbl.find_opt sym_registry key with
    | Some v -> v
    | None ->
      let v = Linear.Var.fresh ~name Linear.Var.Sym in
      Hashtbl.add sym_registry key v;
      let _, owner, code = key in
      Hashtbl.replace sym_reverse (Linear.Var.id v) (owner, code);
      v
  in
  Mutex.unlock sym_mutex;
  v

let sym_info v =
  Mutex.lock sym_mutex;
  let r = Hashtbl.find_opt sym_reverse (Linear.Var.id v) in
  Mutex.unlock sym_mutex;
  r

let intern_module_syms (m : Ir.module_) =
  (* Pre-register the symbolic variable of every scalar symbol, globals
     first then each PU's locals in definition order.  After this pass the
     parallel collection phase only ever *looks up* symbolic variables, so
     their ids — and hence the rendered order of symbolic bound terms — no
     longer depend on the schedule. *)
  Symtab.iter_st m.Ir.m_global (fun idx e ->
      match Symtab.ty m.Ir.m_global e.Symtab.st_ty with
      | Symtab.Ty_scalar _ ->
        ignore
          (sym_var ~m ~pu:"" ~st:(Ir.encode_global idx) ~name:e.Symtab.st_name)
      | Symtab.Ty_array _ -> ());
  List.iter
    (fun pu ->
      Symtab.iter_st pu.Ir.pu_symtab (fun idx e ->
          match Symtab.ty pu.Ir.pu_symtab e.Symtab.st_ty with
          | Symtab.Ty_scalar _ ->
            ignore (sym_var ~m ~pu:pu.Ir.pu_name ~st:idx ~name:e.Symtab.st_name)
          | Symtab.Ty_array _ -> ()))
    m.Ir.m_pus

(* ------------------------------------------------------------------ *)

let extents_of m pu st =
  match Ir.ty_of m pu st with
  | Symtab.Ty_array { dims; _ } ->
    let ext =
      List.map
        (fun (lo, hi) ->
          match lo, hi with
          | Some l, Some h when h >= l -> Some (h - l + 1)
          | _ -> None)
        dims
    in
    (match pu.Ir.pu_lang with
    | Lang.Ast.Fortran -> List.rev ext
    | Lang.Ast.C -> ext)
  | Symtab.Ty_scalar _ -> []

let is_array m pu st =
  match Ir.ty_of m pu st with
  | Symtab.Ty_array _ -> true
  | Symtab.Ty_scalar _ -> false

(* ------------------------------------------------------------------ *)
(* One region per access shape *)

(* A reference's region is a function of its shape: the extents, the
   enclosing loops' bounds and steps, and the subscripts.  The key writes
   that shape with every enclosing induction variable replaced by its
   nesting position (0 = outermost), so two references that differ only in
   the fresh variables naming their loops share one key.  Every other
   variable keeps its identity.

   Why the renaming is sound: {!Region.of_subscripts} eliminates induction
   variables in id order, and the canonical constraint order inside the
   eliminator compares variables by id too, so its result depends on the
   relative order of all the variables involved, not on their names.
   - Loop variables are minted when the walk enters their loop, so within
     one nest they ascend from outermost to innermost: the position is
     their relative order.
   - The strided-loop counters ([#k]) are minted inside [of_subscripts],
     after everything else the shape mentions, so they follow every other
     variable in both builds.
   - A non-loop variable is normally interned before the walk
     ({!intern_module_syms}) and precedes every loop variable; the key
     still records how many enclosing loop variables precede it, so a
     variable minted mid-walk cannot alias a shape where it sits
     elsewhere in the order.
   Subscript variables have fixed negative ids and never appear here. *)
type key_var =
  | K_loop of int  (* nesting position, 0 = outermost *)
  | K_var of int * int  (* variable id, enclosing loop variables below it *)

type key_expr = {
  k_const : Numeric.Rat.t;
  k_terms : (key_var * Numeric.Rat.t) list;
}

type key_result =
  | K_affine of key_expr
  | K_sparse of {
      k_st : int;
      k_lo : int option;
      k_hi : int option;
      k_monotonic : bool;
      k_injective : bool;
      k_inner : key_expr option;
    }
  | K_messy

type shape_key =
  | K_whole of int option list
  | K_shape of {
      k_extents : int option list;
      k_loops : (key_result * key_result * int option) list;  (* outer first *)
      k_subs : key_result list;
    }

module Shape_tbl = Hashtbl.Make (struct
  type t = shape_key
  let equal = ( = )
  let hash k = Hashtbl.hash_param 64 256 k
end)

(* Shared by every domain collecting PUs of one run; guarded like the
   symbolic-variable registry.  Regions are built outside the lock, so two
   domains may race on one shape: both build the same region and the
   first stored one wins. *)
type shapes = {
  sh_tbl : Region.t Shape_tbl.t;
  sh_lock : Mutex.t;
  mutable sh_requested : int;
}

let shapes () =
  { sh_tbl = Shape_tbl.create 256; sh_lock = Mutex.create (); sh_requested = 0 }

let shapes_requested sh = Mutex.protect sh.sh_lock (fun () -> sh.sh_requested)
let shapes_distinct sh =
  Mutex.protect sh.sh_lock (fun () -> Shape_tbl.length sh.sh_tbl)

(* A build that raises stores nothing, so the next request raises again. *)
let shape_region sh key build =
  let hit =
    Mutex.protect sh.sh_lock (fun () ->
        sh.sh_requested <- sh.sh_requested + 1;
        Shape_tbl.find_opt sh.sh_tbl key)
  in
  match hit with
  | Some r -> r
  | None ->
    let r = build () in
    Mutex.protect sh.sh_lock (fun () ->
        match Shape_tbl.find_opt sh.sh_tbl key with
        | Some first -> first
        | None ->
          Shape_tbl.add sh.sh_tbl key r;
          r)

(* [loops] innermost first, as the walk keeps them *)
let shape_key ~extents ~(loops : Region.loop_ctx list) subs =
  let depth = List.length loops in
  let ids = List.map (fun lc -> Linear.Var.id lc.Region.lc_var) loops in
  let key_var v =
    let id = Linear.Var.id v in
    let rec pos i = function
      | [] -> None
      | x :: rest -> if x = id then Some (depth - 1 - i) else pos (i + 1) rest
    in
    match pos 0 ids with
    | Some p -> K_loop p
    | None -> K_var (id, List.length (List.filter (fun x -> x < id) ids))
  in
  let key_expr e =
    {
      k_const = Linear.Expr.constant e;
      k_terms =
        List.rev (Linear.Expr.fold (fun v c acc -> (key_var v, c) :: acc) e []);
    }
  in
  let key_result = function
    | Affine.Affine e -> K_affine (key_expr e)
    | Affine.Sparse sp ->
      K_sparse
        {
          k_st = sp.Affine.sp_st;
          k_lo = sp.Affine.sp_lo;
          k_hi = sp.Affine.sp_hi;
          k_monotonic = sp.Affine.sp_monotonic;
          k_injective = sp.Affine.sp_injective;
          k_inner = Option.map key_expr sp.Affine.sp_inner;
        }
    | Affine.Messy -> K_messy
  in
  K_shape
    {
      k_extents = extents;
      k_loops =
        List.rev_map
          (fun lc ->
            (key_result lc.Region.lc_lo, key_result lc.Region.lc_hi,
             lc.Region.lc_step))
          loops;
      k_subs = List.map key_result subs;
    }

let region_of_shape sh ~extents ~loops subs =
  shape_region sh (shape_key ~extents ~loops subs) (fun () ->
      Region.of_subscripts ~extents ~loops subs)

let whole_of_shape sh ~extents =
  shape_region sh (K_whole extents) (fun () -> Region.whole ~extents)

(* ------------------------------------------------------------------ *)

type state = {
  m : Ir.module_;
  pu : Ir.pu;
  shapes : shapes;
  mutable loops : (int * Region.loop_ctx) list;  (* innermost first *)
  mutable accesses : access list;
  mutable sites : site list;
}

let affine_env s =
  {
    Affine.var_of_st =
      (fun st ->
        match List.assoc_opt st s.loops with
        | Some lc -> Some lc.Region.lc_var
        | None ->
          let name = Ir.st_name s.m s.pu st in
          Some (sym_var ~m:s.m ~pu:s.pu.Ir.pu_name ~st ~name));
    const_of_st = (fun _ -> None);
    iprop_of_st = (fun st -> (Ir.st_entry s.m s.pu st).Symtab.st_iprop);
  }

let loop_ctxs s = List.map snd s.loops

let record ?sparse s st mode region loc =
  s.accesses <-
    {
      ac_st = st;
      ac_mode = mode;
      ac_region = region;
      ac_loc = loc;
      ac_via = None;
      ac_sparse = sparse;
    }
    :: s.accesses

(* name of the first index array appearing in a subscript list — the
   inspector label for accesses that stay undecidable *)
let sparse_marker s subs =
  List.find_map
    (function
      | Affine.Sparse sp -> Some (Ir.st_name s.m s.pu sp.Affine.sp_st)
      | Affine.Affine _ | Affine.Messy -> None)
    subs

let region_of_array_node s (w : Wn.t) =
  let n = Wn.num_dim w in
  let env = affine_env s in
  let subs = List.init n (fun k -> Affine.of_wn env (Wn.array_index w k)) in
  let st = (Wn.array_base w).Wn.st_idx in
  let extents = extents_of s.m s.pu st in
  ( st,
    region_of_shape s.shapes ~extents ~loops:(loop_ctxs s) subs,
    sparse_marker s subs )

let whole_region s st =
  whole_of_shape s.shapes ~extents:(extents_of s.m s.pu st)

(* ------------------------------------------------------------------ *)

let rec walk_expr s (w : Wn.t) =
  match w.Wn.operator with
  | Wn.OPR_ILOAD ->
    let addr = Wn.kid w 0 in
    if addr.Wn.operator = Wn.OPR_ARRAY then begin
      let st, region, sparse = region_of_array_node s addr in
      record ?sparse s st Mode.USE region w.Wn.linenum;
      let n = Wn.num_dim addr in
      for k = 0 to n - 1 do
        walk_expr s (Wn.array_index addr k)
      done
    end
    else if addr.Wn.operator = Wn.OPR_COIDX then begin
      (* remote coarray read: x(i)[p] *)
      let arr = Wn.kid addr 0 in
      let st, region, sparse = region_of_array_node s arr in
      record ?sparse s st Mode.RUSE region w.Wn.linenum;
      let n = Wn.num_dim arr in
      for k = 0 to n - 1 do
        walk_expr s (Wn.array_index arr k)
      done;
      walk_expr s (Wn.kid addr 1)
    end
    else walk_expr s addr
  | Wn.OPR_LDA ->
    if is_array s.m s.pu w.Wn.st_idx then
      record s w.Wn.st_idx Mode.USE (whole_region s w.Wn.st_idx) w.Wn.linenum
  | Wn.OPR_ARRAY ->
    let n = Wn.num_dim w in
    for k = 0 to n - 1 do
      walk_expr s (Wn.array_index w k)
    done
  | Wn.OPR_CALL -> walk_call s w
  | _ -> Array.iter (walk_expr s) w.Wn.kids

and walk_call s (w : Wn.t) =
  let callee = Ir.st_name s.m s.pu w.Wn.st_idx in
  let env = affine_env s in
  let args =
    Array.to_list w.Wn.kids
    |> List.map (fun parm ->
           let a = Wn.kid parm 0 in
           match a.Wn.operator with
           | Wn.OPR_LDA when is_array s.m s.pu a.Wn.st_idx ->
             (* PASSED: the whole array is handed to the callee *)
             record s a.Wn.st_idx Mode.PASSED (whole_region s a.Wn.st_idx)
               w.Wn.linenum;
             Arg_array_whole a.Wn.st_idx
           | Wn.OPR_LDA -> Arg_scalar_ref a.Wn.st_idx
           | Wn.OPR_ARRAY ->
             let st = (Wn.array_base a).Wn.st_idx in
             let n = Wn.num_dim a in
             let coords =
               List.init n (fun k -> Affine.of_wn env (Wn.array_index a k))
             in
             for k = 0 to n - 1 do
               walk_expr s (Wn.array_index a k)
             done;
             let extents = extents_of s.m s.pu st in
             let region =
               region_of_shape s.shapes ~extents ~loops:(loop_ctxs s) coords
             in
             record ?sparse:(sparse_marker s coords) s st Mode.PASSED region
               w.Wn.linenum;
             Arg_array_elem (st, coords)
           | _ ->
             walk_expr s a;
             Arg_value (Affine.of_wn env a))
  in
  s.sites <-
    { s_callee = callee; s_args = args; s_loops = s.loops; s_loc = w.Wn.linenum }
    :: s.sites

let rec walk_stmt s (w : Wn.t) =
  match w.Wn.operator with
  | Wn.OPR_BLOCK | Wn.OPR_FUNC_ENTRY -> Array.iter (walk_stmt s) w.Wn.kids
  | Wn.OPR_STID -> walk_expr s (Wn.kid w 0)
  | Wn.OPR_ISTORE ->
    walk_expr s (Wn.kid w 0);
    let addr = Wn.kid w 1 in
    if addr.Wn.operator = Wn.OPR_ARRAY then begin
      let st, region, sparse = region_of_array_node s addr in
      record ?sparse s st Mode.DEF region w.Wn.linenum;
      let n = Wn.num_dim addr in
      for k = 0 to n - 1 do
        walk_expr s (Wn.array_index addr k)
      done
    end
    else if addr.Wn.operator = Wn.OPR_COIDX then begin
      (* remote coarray write: x(i)[p] = ... *)
      let arr = Wn.kid addr 0 in
      let st, region, sparse = region_of_array_node s arr in
      record ?sparse s st Mode.RDEF region w.Wn.linenum;
      let n = Wn.num_dim arr in
      for k = 0 to n - 1 do
        walk_expr s (Wn.array_index arr k)
      done;
      walk_expr s (Wn.kid addr 1)
    end
    else walk_expr s addr
  | Wn.OPR_DO_LOOP ->
    let ivar_st = (Wn.kid w 0).Wn.st_idx in
    (* loop bound expressions run in the enclosing context *)
    walk_expr s (Wn.kid w 1);
    walk_expr s (Wn.kid w 2);
    walk_expr s (Wn.kid w 3);
    let env = affine_env s in
    let lo = Affine.of_wn env (Wn.kid w 1) in
    let hi = Affine.of_wn env (Wn.kid w 2) in
    let step =
      match Affine.of_wn env (Wn.kid w 3) with
      | Affine.Affine e when Linear.Expr.is_const e ->
        let c = Linear.Expr.constant e in
        if Numeric.Rat.is_integer c then Some (Numeric.Rat.to_int c) else None
      | _ -> None
    in
    let name = Ir.st_name s.m s.pu ivar_st in
    let lc =
      {
        Region.lc_var = Linear.Var.fresh ~name Linear.Var.Ivar;
        lc_lo = lo;
        lc_hi = hi;
        lc_step = step;
      }
    in
    s.loops <- (ivar_st, lc) :: s.loops;
    walk_stmt s (Wn.kid w 4);
    s.loops <- List.tl s.loops
  | Wn.OPR_WHILE_DO ->
    walk_expr s (Wn.kid w 0);
    walk_stmt s (Wn.kid w 1)
  | Wn.OPR_IF ->
    walk_expr s (Wn.kid w 0);
    walk_stmt s (Wn.kid w 1);
    walk_stmt s (Wn.kid w 2)
  | Wn.OPR_CALL -> walk_call s w
  | Wn.OPR_IO | Wn.OPR_INTRINSIC_OP ->
    Array.iter
      (fun parm ->
        let a = if parm.Wn.operator = Wn.OPR_PARM then Wn.kid parm 0 else parm in
        walk_expr s a)
      w.Wn.kids
  | Wn.OPR_RETURN -> Array.iter (walk_expr s) w.Wn.kids
  | Wn.OPR_NOP -> ()
  | _ -> Array.iter (walk_expr s) w.Wn.kids

let formals_records s =
  List.iter
    (fun idx ->
      let entry = Symtab.st s.pu.Ir.pu_symtab idx in
      match Symtab.ty s.pu.Ir.pu_symtab entry.Symtab.st_ty with
      | Symtab.Ty_array _ ->
        record s idx Mode.FORMAL (whole_region s idx) entry.Symtab.st_loc
      | Symtab.Ty_scalar _ -> ())
    s.pu.Ir.pu_formals

let run_body m pu wn =
  let s =
    { m; pu; shapes = shapes (); loops = []; accesses = []; sites = [] }
  in
  walk_stmt s wn;
  {
    p_pu = pu;
    p_accesses = List.rev s.accesses;
    p_sites = List.rev s.sites;
  }

let scalar_defs m pu wn =
  let defs = ref [] in
  Wn.preorder
    (fun w ->
      if w.Wn.operator = Wn.OPR_STID && not (is_array m pu w.Wn.st_idx) then
        if not (List.mem w.Wn.st_idx !defs) then defs := w.Wn.st_idx :: !defs)
    wn;
  List.rev !defs

let loop_bounds_for m pu (loop : Wn.t) var =
  let env =
    {
      Affine.var_of_st =
        (fun st ->
          Some (sym_var ~m ~pu:pu.Ir.pu_name ~st ~name:(Ir.st_name m pu st)));
      const_of_st = (fun _ -> None);
      iprop_of_st = (fun st -> (Ir.st_entry m pu st).Symtab.st_iprop);
    }
  in
  let lo = Affine.of_wn env (Wn.kid loop 1) in
  let hi = Affine.of_wn env (Wn.kid loop 2) in
  let step =
    match Affine.of_wn env (Wn.kid loop 3) with
    | Affine.Affine e when Linear.Expr.is_const e
                           && Numeric.Rat.is_integer (Linear.Expr.constant e) ->
      Some (Numeric.Rat.to_int (Linear.Expr.constant e))
    | _ -> None
  in
  let v = Linear.Expr.var var in
  match lo, hi, step with
  | Affine.Affine lo, Affine.Affine hi, Some s when s > 0 ->
    [ Linear.Constr.ge v lo; Linear.Constr.le v hi ]
  | Affine.Affine lo, Affine.Affine hi, Some s when s < 0 ->
    [ Linear.Constr.ge v hi; Linear.Constr.le v lo ]
  | Affine.Affine lo, Affine.Affine hi, _
    when Linear.Expr.is_const lo && Linear.Expr.is_const hi ->
    (* unknown step sign but constant bounds: the iteration space is within
       [min, max] either way *)
    let a = Linear.Expr.constant lo and b = Linear.Expr.constant hi in
    let mn = Numeric.Rat.min a b and mx = Numeric.Rat.max a b in
    [
      Linear.Constr.ge v (Linear.Expr.const mn);
      Linear.Constr.le v (Linear.Expr.const mx);
    ]
  | _ ->
    (* direction unknowable: leave the variable unconstrained (sound) *)
    []

let run_pu shapes (m : Ir.module_) pu =
  let s = { m; pu; shapes; loops = []; accesses = []; sites = [] } in
  formals_records s;
  walk_stmt s (Ir.body pu);
  {
    p_pu = pu;
    p_accesses = List.rev s.accesses;
    p_sites = List.rev s.sites;
  }
