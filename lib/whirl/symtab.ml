type ty_idx = int
type st_idx = int

type ty_kind =
  | Ty_scalar of Lang.Ast.dtype
  | Ty_array of {
      elem : Lang.Ast.dtype;
      dims : (int option * int option) list;
      contiguous : bool;
    }

type storage =
  | Sclass_auto
  | Sclass_formal
  | Sclass_common of string
  | Sclass_text

type st_entry = {
  st_name : string;
  st_ty : ty_idx;
  st_sclass : storage;
  st_loc : Lang.Loc.t;
  st_iprop : Lang.Iprop.t;
  mutable st_mem_loc : int;
}

type t = {
  mutable tys : ty_kind array;
  mutable ty_count : int;
  ty_index : (ty_kind, ty_idx) Hashtbl.t;
  mutable sts : st_entry array;
  mutable st_count : int;
  st_index : (string, st_idx) Hashtbl.t;
}

let dummy_st =
  {
    st_name = "";
    st_ty = 0;
    st_sclass = Sclass_auto;
    st_loc = Lang.Loc.dummy;
    st_iprop = Lang.Iprop.none;
    st_mem_loc = 0;
  }

let create () =
  {
    tys = Array.make 16 (Ty_scalar Lang.Ast.Int_t);
    ty_count = 0;
    ty_index = Hashtbl.create 16;
    sts = Array.make 16 dummy_st;
    st_count = 0;
    st_index = Hashtbl.create 16;
  }

let grow arr count fill =
  if count >= Array.length arr then begin
    let bigger = Array.make (2 * Array.length arr) fill in
    Array.blit arr 0 bigger 0 count;
    bigger
  end
  else arr

let intern_ty t kind =
  match Hashtbl.find_opt t.ty_index kind with
  | Some idx -> idx
  | None ->
    t.tys <- grow t.tys t.ty_count (Ty_scalar Lang.Ast.Int_t);
    let idx = t.ty_count in
    t.tys.(idx) <- kind;
    t.ty_count <- idx + 1;
    Hashtbl.add t.ty_index kind idx;
    idx

let ty t idx =
  if idx < 0 || idx >= t.ty_count then invalid_arg "Symtab.ty: bad index";
  t.tys.(idx)

let enter_st t ?(iprop = Lang.Iprop.none) ~name ~ty ~sclass ~loc () =
  t.sts <- grow t.sts t.st_count dummy_st;
  let idx = t.st_count in
  t.sts.(idx) <-
    {
      st_name = name;
      st_ty = ty;
      st_sclass = sclass;
      st_loc = loc;
      st_iprop = iprop;
      st_mem_loc = 0;
    };
  t.st_count <- idx + 1;
  Hashtbl.replace t.st_index name idx;
  idx

let st t idx =
  if idx < 0 || idx >= t.st_count then invalid_arg "Symtab.st: bad index";
  t.sts.(idx)

let find_st t name = Hashtbl.find_opt t.st_index name

let st_count t = t.st_count

let iter_st t f =
  for i = 0 to t.st_count - 1 do
    f i t.sts.(i)
  done

let elem_size t idx =
  match ty t idx with
  | Ty_scalar d -> Lang.Ast.dtype_size d
  | Ty_array { elem; contiguous; _ } ->
    let z = Lang.Ast.dtype_size elem in
    if contiguous then z else -z

let dtype_of_ty t idx =
  match ty t idx with Ty_scalar d -> d | Ty_array { elem; _ } -> elem

let dim_extent (lo, hi) =
  match lo, hi with Some l, Some h when h >= l -> h - l + 1 | _ -> 0

let total_elems t idx =
  match ty t idx with
  | Ty_scalar _ -> 1
  | Ty_array { dims; _ } ->
    List.fold_left
      (fun acc d ->
        let e = dim_extent d in
        if e = 0 then 0 else acc * e)
      1 dims

let size_bytes t idx = total_elems t idx * elem_size t idx
