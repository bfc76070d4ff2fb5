(* A deferred body is one of the trees of a [cell]: the bodies of one
   source file, read together by [load] the first time any of them is
   asked for.  [trees] is published atomically and filled under [lock],
   so pool domains that ask at once load the file once. *)
type cell = {
  load : unit -> Wn.t array;
  lock : Mutex.t;
  trees : Wn.t array option Atomic.t;
}

type body = Tree of Wn.t | Deferred of cell * int

type pu = {
  pu_name : string;
  pu_st : int;
  pu_formals : Symtab.st_idx list;
  pu_body : body;
  pu_symtab : Symtab.t;
  pu_loc : Lang.Loc.t;
  pu_file : string;
  pu_object : string;
  pu_lang : Lang.Ast.language;
}

type module_ = {
  m_global : Symtab.t;
  m_pus : pu list;
  m_program : Lang.Sema.program;  (* procedure headers only *)
}

let tree w = Tree w

let deferred n load =
  let c = { load; lock = Mutex.create (); trees = Atomic.make None } in
  List.init n (fun i -> Deferred (c, i))

let trees c =
  match Atomic.get c.trees with
  | Some a -> a
  | None ->
    Mutex.protect c.lock (fun () ->
        match Atomic.get c.trees with
        | Some a -> a
        | None ->
          let a = c.load () in
          Atomic.set c.trees (Some a);
          a)

let body pu =
  match pu.pu_body with Tree w -> w | Deferred (c, i) -> (trees c).(i)

let with_body pu w = { pu with pu_body = Tree w }

let global_base = 0x4000_0000

let encode_global idx = idx + global_base
let is_global_idx idx = idx >= global_base

let st_entry m pu idx =
  if is_global_idx idx then Symtab.st m.m_global (idx - global_base)
  else Symtab.st pu.pu_symtab idx

let ty_of m pu idx =
  let e = st_entry m pu idx in
  if is_global_idx idx then Symtab.ty m.m_global e.Symtab.st_ty
  else Symtab.ty pu.pu_symtab e.Symtab.st_ty

let st_name m pu idx = (st_entry m pu idx).Symtab.st_name

let find_pu m name =
  List.find_opt (fun p -> String.equal p.pu_name name) m.m_pus

let pu_index m =
  let tbl = Hashtbl.create (2 * List.length m.m_pus + 1) in
  List.iter
    (fun p ->
      if not (Hashtbl.mem tbl p.pu_name) then Hashtbl.add tbl p.pu_name p)
    m.m_pus;
  Hashtbl.find_opt tbl

let pu_count m = List.length m.m_pus
