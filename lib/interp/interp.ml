open Whirl
open Regions

type value = Vint of int | Vreal of float | Vstr of string

type event = {
  ev_write : bool;
  ev_addr : int;
  ev_bytes : int;
  ev_scope : string;
  ev_array : string;
  ev_coords : int list;
}

exception Runtime_error of string * Lang.Loc.t
exception Out_of_fuel
exception Return_signal

type dynamic_region = {
  dr_scope : string;
  dr_array : string;
  dr_mode : Mode.t;
  dr_section : Methods.Section.t;
  dr_count : int;
}

type oob = {
  oob_pu : string;
  oob_array : string;
  oob_coords : int list;
  oob_write : bool;
  oob_line : int;
}

type outcome = {
  out_text : string;
  out_steps : int;
  out_regions : dynamic_region list;
  out_calls : ((string * string) * int) list;
  out_oob : oob list;
}

let error loc fmt = Format.kasprintf (fun s -> raise (Runtime_error (s, loc))) fmt

(* ------------------------------------------------------------------ *)
(* Storage *)

type storage = {
  sg_base : int;
  sg_elem : Lang.Ast.dtype;
  sg_dims : int array;  (* row-major extents *)
  sg_data : value array;
  sg_scope : string;
  sg_name : string;
}

type binding =
  | Bscalar of value ref
  | Barray of storage

type state = {
  m : Ir.module_;
  pu_of : string -> Ir.pu option;  (* built once per run *)
  globals : (int, binding) Hashtbl.t;
  observer : event -> unit;
  out : Buffer.t;
  mutable steps : int;
  fuel : int;
  sections : (string * string * Mode.t, Methods.Section.t * int) Hashtbl.t;
  calls : (string * string, int) Hashtbl.t;
  record_oob : bool;  (* record out-of-bounds accesses instead of trapping *)
  mutable oobs : oob list;  (* newest first *)
}

let zero_value = function
  | Lang.Ast.Int_t | Lang.Ast.Logical_t -> Vint 0
  | Lang.Ast.Real_t | Lang.Ast.Double_t -> Vreal 0.0
  | Lang.Ast.Char_t -> Vstr ""

let dims_of_ty pu = function
  | Symtab.Ty_array { dims; elem; contiguous = _ } ->
    let ext =
      List.map
        (fun (lo, hi) ->
          match lo, hi with
          | Some l, Some h when h >= l -> h - l + 1
          | _ -> -1)
        dims
    in
    let ext =
      match pu with
      | Some p when p.Ir.pu_lang = Lang.Ast.Fortran -> List.rev ext
      | _ -> ext
    in
    Some (elem, Array.of_list ext)
  | Symtab.Ty_scalar _ -> None

let alloc_binding ~scope ~name ~loc pu symtab_entry ty =
  match dims_of_ty pu ty with
  | None ->
    let d = match ty with Symtab.Ty_scalar d -> d | _ -> assert false in
    Bscalar (ref (zero_value d))
  | Some (elem, dims) ->
    if Array.exists (fun e -> e < 0) dims then
      error loc "cannot allocate variable-length array %s" name;
    let total = Array.fold_left ( * ) 1 dims in
    Barray
      {
        sg_base = symtab_entry.Symtab.st_mem_loc;
        sg_elem = elem;
        sg_dims = dims;
        sg_data = Array.make total (zero_value elem);
        sg_scope = scope;
        sg_name = name;
      }

(* ------------------------------------------------------------------ *)
(* Value helpers *)

let as_float loc = function
  | Vint n -> float_of_int n
  | Vreal f -> f
  | Vstr _ -> error loc "string used as a number"

let as_int loc = function
  | Vint n -> n
  | Vreal f -> int_of_float f
  | Vstr _ -> error loc "string used as an integer"

let truthy loc v = as_int loc v <> 0

let numeric_binop loc op a b =
  match a, b with
  | Vint x, Vint y -> (
    match op with
    | Wn.OPR_ADD -> Vint (x + y)
    | Wn.OPR_SUB -> Vint (x - y)
    | Wn.OPR_MPY -> Vint (x * y)
    | Wn.OPR_DIV ->
      if y = 0 then error loc "integer division by zero" else Vint (x / y)
    | Wn.OPR_MOD ->
      if y = 0 then error loc "mod by zero" else Vint (x mod y)
    | _ -> assert false)
  | _ ->
    let x = as_float loc a and y = as_float loc b in
    (match op with
    | Wn.OPR_ADD -> Vreal (x +. y)
    | Wn.OPR_SUB -> Vreal (x -. y)
    | Wn.OPR_MPY -> Vreal (x *. y)
    | Wn.OPR_DIV -> Vreal (x /. y)
    | Wn.OPR_MOD -> Vreal (Float.rem x y)
    | _ -> assert false)

let compare_values loc a b =
  match a, b with
  | Vint x, Vint y -> compare x y
  | Vstr x, Vstr y -> compare x y
  | _ -> compare (as_float loc a) (as_float loc b)

let string_of_value = function
  | Vint n -> string_of_int n
  | Vreal f -> Printf.sprintf "%g" f
  | Vstr s -> s

(* ------------------------------------------------------------------ *)

let record_section state scope name mode coords =
  let key = (scope, name, mode) in
  let section, count =
    match Hashtbl.find_opt state.sections key with
    | Some (s, c) -> (s, c)
    | None -> (Methods.Section.empty (List.length coords), 0)
  in
  Hashtbl.replace state.sections key
    (Methods.Section.add coords section, count + 1)

(* ------------------------------------------------------------------ *)
(* Frames *)

type frame = {
  fr_pu : Ir.pu;
  fr_slots : (int, binding) Hashtbl.t;
}

let binding_of state frame st =
  if Ir.is_global_idx st then
    match Hashtbl.find_opt state.globals st with
    | Some b -> b
    | None -> error Lang.Loc.dummy "unallocated global symbol %d" st
  else
    match Hashtbl.find_opt frame.fr_slots st with
    | Some b -> b
    | None ->
      (* lazily allocate locals *)
      let entry = Symtab.st frame.fr_pu.Ir.pu_symtab st in
      let ty = Symtab.ty frame.fr_pu.Ir.pu_symtab entry.Symtab.st_ty in
      let b =
        alloc_binding ~scope:frame.fr_pu.Ir.pu_name ~name:entry.Symtab.st_name
          ~loc:entry.Symtab.st_loc (Some frame.fr_pu) entry ty
      in
      Hashtbl.replace frame.fr_slots st b;
      b

let scalar_ref state frame loc st =
  match binding_of state frame st with
  | Bscalar r -> r
  | Barray _ -> error loc "array used as a scalar"

let array_storage state frame loc st =
  match binding_of state frame st with
  | Barray s -> s
  | Bscalar _ -> error loc "scalar used as an array"

(* ------------------------------------------------------------------ *)
(* Expression evaluation *)

let rec eval state frame (w : Wn.t) : value =
  match w.Wn.operator with
  | Wn.OPR_INTCONST -> Vint w.Wn.const_val
  | Wn.OPR_CONST -> Vreal w.Wn.flt_val
  | Wn.OPR_STRCONST -> Vstr w.Wn.str_val
  | Wn.OPR_LDID -> !(scalar_ref state frame w.Wn.linenum w.Wn.st_idx)
  | Wn.OPR_ILOAD ->
    let addr = Wn.kid w 0 in
    (* single-image execution: a remote access with image 1 is local *)
    let addr =
      if addr.Wn.operator = Wn.OPR_COIDX then begin
        let img = as_int w.Wn.linenum (eval state frame (Wn.kid addr 1)) in
        if img <> 1 then
          error w.Wn.linenum
            "remote access to image %d in a single-image run" img;
        Wn.kid addr 0
      end
      else addr
    in
    if addr.Wn.operator <> Wn.OPR_ARRAY then
      error w.Wn.linenum "ILOAD of a non-ARRAY address";
    (match locate state frame ~write:false addr with
    | storage, Some flat, coords ->
      emit_event state storage ~write:false flat coords;
      record_section state
        (if storage.sg_scope = "@" then "@" else storage.sg_scope)
        storage.sg_name Mode.USE coords;
      storage.sg_data.(flat)
    | storage, None, _ ->
      (* recorded out-of-bounds read: a well-defined dummy value keeps the
         run going so one fault does not mask later ones *)
      zero_value storage.sg_elem)
  | Wn.OPR_ADD | Wn.OPR_SUB | Wn.OPR_MPY | Wn.OPR_DIV | Wn.OPR_MOD ->
    numeric_binop w.Wn.linenum w.Wn.operator
      (eval state frame (Wn.kid w 0))
      (eval state frame (Wn.kid w 1))
  | Wn.OPR_NEG -> (
    match eval state frame (Wn.kid w 0) with
    | Vint n -> Vint (-n)
    | Vreal f -> Vreal (-.f)
    | Vstr _ -> error w.Wn.linenum "negation of a string")
  | Wn.OPR_EQ | Wn.OPR_NE | Wn.OPR_LT | Wn.OPR_LE | Wn.OPR_GT | Wn.OPR_GE ->
    let c =
      compare_values w.Wn.linenum
        (eval state frame (Wn.kid w 0))
        (eval state frame (Wn.kid w 1))
    in
    let b =
      match w.Wn.operator with
      | Wn.OPR_EQ -> c = 0
      | Wn.OPR_NE -> c <> 0
      | Wn.OPR_LT -> c < 0
      | Wn.OPR_LE -> c <= 0
      | Wn.OPR_GT -> c > 0
      | Wn.OPR_GE -> c >= 0
      | _ -> assert false
    in
    Vint (if b then 1 else 0)
  | Wn.OPR_LAND ->
    Vint
      (if
         truthy w.Wn.linenum (eval state frame (Wn.kid w 0))
         && truthy w.Wn.linenum (eval state frame (Wn.kid w 1))
       then 1
       else 0)
  | Wn.OPR_LIOR ->
    Vint
      (if
         truthy w.Wn.linenum (eval state frame (Wn.kid w 0))
         || truthy w.Wn.linenum (eval state frame (Wn.kid w 1))
       then 1
       else 0)
  | Wn.OPR_LNOT ->
    Vint (if truthy w.Wn.linenum (eval state frame (Wn.kid w 0)) then 0 else 1)
  | Wn.OPR_INTRINSIC_OP -> eval_intrinsic state frame w
  | Wn.OPR_CALL ->
    (* function call in expression position: the callee stores its result
       into the local scalar named after itself (the Fortran convention the
       lowering sets up); read it back from the callee's frame *)
    let callee, callee_frame = exec_call state frame w in
    (match Symtab.find_st callee.Ir.pu_symtab callee.Ir.pu_name with
    | Some result_st -> (
      match Hashtbl.find_opt callee_frame.fr_slots result_st with
      | Some (Bscalar r) -> !r
      | _ ->
        error w.Wn.linenum "function %s did not produce a result"
          callee.Ir.pu_name)
    | None ->
      error w.Wn.linenum "%s is a subroutine, not a function (no value)"
        callee.Ir.pu_name)
  | op -> error w.Wn.linenum "cannot evaluate operator %s" (Wn.operator_name op)

and eval_intrinsic state frame (w : Wn.t) : value =
  let loc = w.Wn.linenum in
  let arg i = eval state frame (Wn.kid w i) in
  let f1 fn =
    Vreal (fn (as_float loc (arg 0)))
  in
  match String.lowercase_ascii w.Wn.str_val, Wn.kid_count w with
  | "mod", 2 -> numeric_binop loc Wn.OPR_MOD (arg 0) (arg 1)
  | ("abs" | "dabs" | "fabs"), 1 -> (
    match arg 0 with
    | Vint n -> Vint (abs n)
    | Vreal f -> Vreal (Float.abs f)
    | Vstr _ -> error loc "abs of a string")
  | ("sqrt" | "dsqrt"), 1 -> f1 sqrt
  | ("exp" | "dexp"), 1 -> f1 exp
  | ("log" | "dlog"), 1 -> f1 log
  | "sin", 1 -> f1 sin
  | "cos", 1 -> f1 cos
  | "tan", 1 -> f1 tan
  | "pow", 2 -> (
    match arg 0, arg 1 with
    | Vint b, Vint e when e >= 0 ->
      let rec go acc i = if i = 0 then acc else go (acc * b) (i - 1) in
      Vint (go 1 e)
    | a, b -> Vreal (Float.pow (as_float loc a) (as_float loc b)))
  | ("min" | "max"), n when n >= 2 ->
    let vs = List.init n arg in
    let pick cmp =
      List.fold_left
        (fun acc v -> if cmp (compare_values loc v acc) 0 then v else acc)
        (List.hd vs) (List.tl vs)
    in
    if String.lowercase_ascii w.Wn.str_val = "min" then pick ( < ) else pick ( > )
  | ("dble" | "float" | "real"), 1 -> Vreal (as_float loc (arg 0))
  | ("int" | "floor"), 1 -> Vint (int_of_float (Float.trunc (as_float loc (arg 0))))
  | "nint", 1 -> Vint (int_of_float (Float.round (as_float loc (arg 0))))
  | "this_image", 0 -> Vint 1
  | "num_images", 0 -> Vint 1
  | "ceil", 1 -> Vint (int_of_float (Float.ceil (as_float loc (arg 0))))
  | name, n -> error loc "unsupported intrinsic %s/%d" name n

(* resolve an ARRAY node to (storage, flat index, coords); [None] flat when
   the access is out of bounds and the run records instead of trapping *)
and locate state frame ~write (w : Wn.t) =
  let base = Wn.array_base w in
  let storage = array_storage state frame w.Wn.linenum base.Wn.st_idx in
  let n = Wn.num_dim w in
  if n <> Array.length storage.sg_dims then
    error w.Wn.linenum "rank mismatch on %s" storage.sg_name;
  let coords =
    List.init n (fun k -> as_int w.Wn.linenum (eval state frame (Wn.array_index w k)))
  in
  let oob = List.exists2 (fun y h -> y < 0 || y >= h) coords
      (Array.to_list storage.sg_dims)
  in
  if oob then begin
    if not state.record_oob then
      List.iteri
        (fun k y ->
          let h = storage.sg_dims.(k) in
          if y < 0 || y >= h then
            error w.Wn.linenum
              "index %d out of bounds [0,%d) in dimension %d of %s" y h k
              storage.sg_name)
        coords;
    state.oobs <-
      {
        oob_pu = frame.fr_pu.Ir.pu_name;
        (* the symbol name as the executing PU spells it (the formal for a
           by-reference argument), so the event joins against that PU's
           static access table rather than the caller's actual *)
        oob_array = Ir.st_name state.m frame.fr_pu base.Wn.st_idx;
        oob_coords = coords;
        oob_write = write;
        oob_line = Lang.Loc.line w.Wn.linenum;
      }
      :: state.oobs;
    (storage, None, coords)
  end
  else begin
    let flat = ref 0 in
    List.iteri
      (fun k y -> flat := (!flat * storage.sg_dims.(k)) + y)
      coords;
    (storage, Some !flat, coords)
  end

and emit_event state storage ~write flat coords =
  let bytes = Lang.Ast.dtype_size storage.sg_elem in
  state.observer
    {
      ev_write = write;
      ev_addr = storage.sg_base + (bytes * flat);
      ev_bytes = bytes;
      ev_scope = storage.sg_scope;
      ev_array = storage.sg_name;
      ev_coords = coords;
    }

(* printf-style substitution for the C front end's printf *)
and format_io loc fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let args = ref args in
  let next () =
    match !args with
    | [] -> error loc "printf: not enough arguments"
    | v :: rest ->
      args := rest;
      v
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      (match fmt.[!i + 1] with
      | 'd' | 'i' -> Buffer.add_string buf (string_of_int (as_int loc (next ())))
      | 'g' | 'f' | 'e' ->
        Buffer.add_string buf (Printf.sprintf "%g" (as_float loc (next ())))
      | 's' -> Buffer.add_string buf (string_of_value (next ()))
      | '%' -> Buffer.add_char buf '%'
      | c -> Buffer.add_char buf c);
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Statements *)

and tick state loc =
  state.steps <- state.steps + 1;
  if state.steps > state.fuel then begin
    ignore loc;
    raise Out_of_fuel
  end

and exec state frame (w : Wn.t) : unit =
  match w.Wn.operator with
  | Wn.OPR_BLOCK | Wn.OPR_FUNC_ENTRY -> Array.iter (exec state frame) w.Wn.kids
  | Wn.OPR_STID ->
    tick state w.Wn.linenum;
    let v = eval state frame (Wn.kid w 0) in
    scalar_ref state frame w.Wn.linenum w.Wn.st_idx := v
  | Wn.OPR_ISTORE ->
    tick state w.Wn.linenum;
    let v = eval state frame (Wn.kid w 0) in
    let addr = Wn.kid w 1 in
    let addr =
      if addr.Wn.operator = Wn.OPR_COIDX then begin
        let img = as_int w.Wn.linenum (eval state frame (Wn.kid addr 1)) in
        if img <> 1 then
          error w.Wn.linenum
            "remote access to image %d in a single-image run" img;
        Wn.kid addr 0
      end
      else addr
    in
    if addr.Wn.operator <> Wn.OPR_ARRAY then
      error w.Wn.linenum "ISTORE to a non-ARRAY address";
    (match locate state frame ~write:true addr with
    | storage, Some flat, coords ->
      emit_event state storage ~write:true flat coords;
      record_section state
        (if storage.sg_scope = "@" then "@" else storage.sg_scope)
        storage.sg_name Mode.DEF coords;
      storage.sg_data.(flat) <- v
    | _, None, _ -> (* recorded out-of-bounds write: dropped *) ())
  | Wn.OPR_DO_LOOP ->
    tick state w.Wn.linenum;
    let ivar = (Wn.kid w 0).Wn.st_idx in
    let r = scalar_ref state frame w.Wn.linenum ivar in
    let lo = as_int w.Wn.linenum (eval state frame (Wn.kid w 1)) in
    let hi = as_int w.Wn.linenum (eval state frame (Wn.kid w 2)) in
    let step = as_int w.Wn.linenum (eval state frame (Wn.kid w 3)) in
    if step = 0 then error w.Wn.linenum "zero loop step";
    r := Vint lo;
    let continue () =
      let v = as_int w.Wn.linenum !r in
      if step > 0 then v <= hi else v >= hi
    in
    while continue () do
      tick state w.Wn.linenum;
      exec state frame (Wn.kid w 4);
      r := Vint (as_int w.Wn.linenum !r + step)
    done
  | Wn.OPR_WHILE_DO ->
    tick state w.Wn.linenum;
    while truthy w.Wn.linenum (eval state frame (Wn.kid w 0)) do
      tick state w.Wn.linenum;
      exec state frame (Wn.kid w 1)
    done
  | Wn.OPR_IF ->
    tick state w.Wn.linenum;
    if truthy w.Wn.linenum (eval state frame (Wn.kid w 0)) then
      exec state frame (Wn.kid w 1)
    else exec state frame (Wn.kid w 2)
  | Wn.OPR_CALL ->
    tick state w.Wn.linenum;
    ignore (exec_call state frame w)
  | Wn.OPR_RETURN -> raise Return_signal
  | Wn.OPR_IO ->
    tick state w.Wn.linenum;
    let values =
      Array.to_list w.Wn.kids
      |> List.map (fun parm ->
             let a =
               if parm.Wn.operator = Wn.OPR_PARM then Wn.kid parm 0 else parm
             in
             eval state frame a)
    in
    (match values with
    | Vstr fmt :: rest when String.contains fmt '%' ->
      (* C printf-style: substitute %d/%g/%f/%s left to right *)
      Buffer.add_string state.out (format_io w.Wn.linenum fmt rest)
    | _ ->
      Buffer.add_string state.out
        (String.concat " " (List.map string_of_value values));
      Buffer.add_char state.out '\n')
  | Wn.OPR_INTRINSIC_OP ->
    tick state w.Wn.linenum;
    ignore (eval_intrinsic state frame w)
  | Wn.OPR_NOP -> ()
  | op -> error w.Wn.linenum "cannot execute operator %s" (Wn.operator_name op)

and exec_call state frame (w : Wn.t) =
  let callee_name = Ir.st_name state.m frame.fr_pu w.Wn.st_idx in
  match state.pu_of callee_name with
  | None -> error w.Wn.linenum "call to unknown procedure %s" callee_name
  | Some callee ->
    let formals = callee.Ir.pu_formals in
    let args = Array.to_list w.Wn.kids in
    if List.length formals <> List.length args then
      error w.Wn.linenum "%s expects %d arguments, got %d" callee_name
        (List.length formals) (List.length args);
    let edge = (frame.fr_pu.Ir.pu_name, callee_name) in
    Hashtbl.replace state.calls edge
      (1 + try Hashtbl.find state.calls edge with Not_found -> 0);
    let callee_frame = { fr_pu = callee; fr_slots = Hashtbl.create 16 } in
    List.iter2
      (fun formal parm ->
        let a = Wn.kid parm 0 in
        let binding =
          match a.Wn.operator with
          | Wn.OPR_LDA -> binding_of state frame a.Wn.st_idx
          | Wn.OPR_ARRAY ->
            error w.Wn.linenum
              "element-address argument passing is not supported by the \
               interpreter"
          | _ -> Bscalar (ref (eval state frame a))
        in
        Hashtbl.replace callee_frame.fr_slots formal binding)
      formals args;
    (try exec state callee_frame (Ir.body callee)
     with Return_signal -> ());
    (callee, callee_frame)

(* ------------------------------------------------------------------ *)

let allocate_globals state =
  Symtab.iter_st state.m.Ir.m_global (fun idx entry ->
      match entry.Symtab.st_sclass with
      | Symtab.Sclass_text -> ()
      | _ ->
        let ty = Symtab.ty state.m.Ir.m_global entry.Symtab.st_ty in
        (* globals come from Fortran COMMON or C file scope; dimension
           order was already stored in source order, so pick the owning
           language from any PU of that language.  COMMON declarations in
           our corpus are Fortran; C globals are C.  Use the language of
           the first PU. *)
        let pu = match state.m.Ir.m_pus with p :: _ -> Some p | [] -> None in
        let b =
          alloc_binding ~scope:"@" ~name:entry.Symtab.st_name
            ~loc:entry.Symtab.st_loc pu entry ty
        in
        Hashtbl.replace state.globals (Ir.encode_global idx) b)

let find_entry m entry =
  match entry with
  | Some name -> (
    match Ir.find_pu m name with
    | Some pu -> pu
    | None -> error Lang.Loc.dummy "no procedure named %s" name)
  | None -> (
    let is_program pu =
      match
        Lang.Sema.String_map.find_opt pu.Ir.pu_name
          m.Ir.m_program.Lang.Sema.prog_procs
      with
      | Some pi -> pi.Lang.Sema.pi_proc.Lang.Ast.proc_kind = Lang.Ast.Program
      | None -> false
    in
    match List.find_opt is_program m.Ir.m_pus with
    | Some pu -> pu
    | None -> (
      match m.Ir.m_pus with
      | pu :: _ -> pu
      | [] -> error Lang.Loc.dummy "empty module"))

let run ?(fuel = 50_000_000) ?(observer = fun _ -> ()) ?(record_oob = false)
    ?entry m =
  Layout.assign m;
  let state =
    {
      m;
      pu_of = Ir.pu_index m;
      globals = Hashtbl.create 64;
      observer;
      out = Buffer.create 256;
      steps = 0;
      fuel;
      sections = Hashtbl.create 64;
      calls = Hashtbl.create 32;
      record_oob;
      oobs = [];
    }
  in
  allocate_globals state;
  let entry_pu = find_entry m entry in
  let frame = { fr_pu = entry_pu; fr_slots = Hashtbl.create 16 } in
  (try exec state frame (Ir.body entry_pu) with Return_signal -> ());
  let out_regions =
    Hashtbl.fold
      (fun (scope, array, mode) (section, count) acc ->
        {
          dr_scope = scope;
          dr_array = array;
          dr_mode = mode;
          dr_section = section;
          dr_count = count;
        }
        :: acc)
      state.sections []
  in
  {
    out_text = Buffer.contents state.out;
    out_steps = state.steps;
    out_regions;
    out_calls =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) state.calls []
      |> List.sort compare;
    out_oob = List.rev state.oobs;
  }
