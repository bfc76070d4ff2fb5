open Whirl

type block = {
  id : int;
  n_stmts : int;
  label : string;
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  proc : string;
  blocks : block array;
  entry : int;
  exit_ : int;
}

(* mutable builder: per-block columns indexed by block id, edge lists
   newest first (reversed once by [build]) *)
type builder = {
  mutable labels : string array;
  mutable stmts : int array;
  mutable succs_rev : int list array;
  mutable preds_rev : int list array;
  mutable count : int;
  mutable cur : int;          (* block currently being appended to *)
  mutable cur_stmts : int;    (* statements appended since the last seal *)
  bexit : int;
}

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let mk_block b label =
  if b.count = Array.length b.labels then begin
    b.labels <- grow b.labels "";
    b.stmts <- grow b.stmts 0;
    b.succs_rev <- grow b.succs_rev [];
    b.preds_rev <- grow b.preds_rev []
  end;
  let id = b.count in
  b.labels.(id) <- label;
  b.count <- id + 1;
  id

let add_edge b src dst =
  if not (List.mem dst b.succs_rev.(src)) then
    b.succs_rev.(src) <- dst :: b.succs_rev.(src);
  if not (List.mem src b.preds_rev.(dst)) then
    b.preds_rev.(dst) <- src :: b.preds_rev.(dst)

(* seal the statements collected so far into the current block *)
let seal b =
  b.stmts.(b.cur) <- b.cur_stmts;
  b.cur_stmts <- 0

let switch_to b id =
  seal b;
  b.cur <- id

let append b = b.cur_stmts <- b.cur_stmts + 1

let rec process_block b (wn : Wn.t) =
  Array.iter (process_stmt b) wn.Wn.kids

and process_stmt b (wn : Wn.t) =
  match wn.Wn.operator with
  | Wn.OPR_BLOCK -> process_block b wn
  | Wn.OPR_STID | Wn.OPR_ISTORE | Wn.OPR_CALL | Wn.OPR_IO
  | Wn.OPR_INTRINSIC_OP | Wn.OPR_NOP ->
    append b
  | Wn.OPR_RETURN ->
    append b;
    add_edge b b.cur b.bexit;
    (* anything after a return begins an unreachable block *)
    let dead = mk_block b "unreachable" in
    switch_to b dead
  | Wn.OPR_IF ->
    append b (* the condition *);
    let cond = b.cur in
    let join = mk_block b "join" in
    let then_head = mk_block b "then" in
    add_edge b cond then_head;
    switch_to b then_head;
    process_stmt b (Wn.kid wn 1);
    add_edge b b.cur join;
    seal b;
    let else_wn = Wn.kid wn 2 in
    if Wn.kid_count else_wn > 0 then begin
      let else_head = mk_block b "else" in
      add_edge b cond else_head;
      b.cur <- else_head;
      process_stmt b else_wn;
      add_edge b b.cur join;
      seal b
    end
    else add_edge b cond join;
    b.cur <- join
  | Wn.OPR_DO_LOOP ->
    let head = mk_block b "loop-head" in
    add_edge b b.cur head;
    switch_to b head;
    append b (* the loop header: ivar, bounds, step *);
    seal b;
    let body_head = mk_block b "loop-body" in
    let after = mk_block b "loop-exit" in
    add_edge b head body_head;
    add_edge b head after;
    b.cur <- body_head;
    process_stmt b (Wn.kid wn 4);
    add_edge b b.cur head;
    seal b;
    b.cur <- after
  | Wn.OPR_WHILE_DO ->
    let head = mk_block b "while-head" in
    add_edge b b.cur head;
    switch_to b head;
    append b (* the condition *);
    seal b;
    let body_head = mk_block b "while-body" in
    let after = mk_block b "while-exit" in
    add_edge b head body_head;
    add_edge b head after;
    b.cur <- body_head;
    process_stmt b (Wn.kid wn 1);
    add_edge b b.cur head;
    seal b;
    b.cur <- after
  | _ -> append b

let build (pu : Ir.pu) =
  let b =
    {
      labels = Array.make 16 "";
      stmts = Array.make 16 0;
      succs_rev = Array.make 16 [];
      preds_rev = Array.make 16 [];
      count = 0;
      cur = 0;
      cur_stmts = 0;
      bexit = 1;
    }
  in
  let entry = mk_block b "entry" in
  let bexit = mk_block b "exit" in
  assert (entry = 0 && bexit = 1);
  let first = mk_block b "b" in
  b.cur <- first;
  add_edge b entry first;
  process_stmt b (Wn.kid (Ir.body pu) 0);
  add_edge b b.cur bexit;
  seal b;
  let blocks =
    Array.init b.count (fun id ->
        {
          id;
          n_stmts = b.stmts.(id);
          label = b.labels.(id);
          succs = List.rev b.succs_rev.(id);
          preds = List.rev b.preds_rev.(id);
        })
  in
  { proc = pu.Ir.pu_name; blocks; entry; exit_ = bexit }

let block_count t = Array.length t.blocks

let edge_count t =
  Array.fold_left (fun acc blk -> acc + List.length blk.succs) 0 t.blocks

let reverse_postorder t =
  let n = Array.length t.blocks in
  let seen = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs t.blocks.(i).succs;
      order := i :: !order
    end
  in
  dfs t.entry;
  !order

(* Cooper-Harvey-Kennedy iterative dominators *)
let dominators t =
  let n = Array.length t.blocks in
  let rpo = reverse_postorder t in
  let rpo_index = Array.make n (-1) in
  List.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(t.entry) <- t.entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> t.entry then begin
          let preds =
            List.filter (fun p -> idom.(p) <> -1) t.blocks.(b).preds
          in
          match preds with
          | [] -> ()
          | p :: rest ->
            let new_idom = List.fold_left intersect p rest in
            if idom.(b) <> new_idom then begin
              idom.(b) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  idom

let dominates t a b =
  let idom = dominators t in
  let rec walk x = if x = a then true else if x = t.entry || x = -1 then a = t.entry else walk idom.(x) in
  if idom.(b) = -1 then false else walk b

let block_title blk =
  Printf.sprintf "B%d (%s, %d stmts)" blk.id blk.label blk.n_stmts

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" t.proc);
  Buffer.add_string buf "  node [shape=box fontname=\"monospace\"];\n";
  Array.iter
    (fun blk ->
      if blk.preds <> [] || blk.succs <> [] || blk.id = t.entry then
        Buffer.add_string buf
          (Printf.sprintf "  b%d [label=\"%s\"];\n" blk.id (block_title blk)))
    t.blocks;
  Array.iter
    (fun blk ->
      List.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf "  b%d -> b%d;\n" blk.id s))
        blk.succs)
    t.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_ascii t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "CFG of %s (%d blocks, %d edges)\n" t.proc (block_count t) (edge_count t));
  Array.iter
    (fun blk ->
      if blk.preds <> [] || blk.succs <> [] || blk.id = t.entry then
        Buffer.add_string buf
          (Printf.sprintf "  %-28s -> [%s]\n" (block_title blk)
             (String.concat ", " (List.map (Printf.sprintf "B%d") blk.succs))))
    t.blocks;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_ascii t)
