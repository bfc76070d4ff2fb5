open Whirl

type callsite = {
  cs_caller : string;
  cs_callee : string;
  cs_loc : Lang.Loc.t;
  cs_wn : Wn.t;
}

type t = {
  order : string list;
  sites : callsite list;
  callee_map : (string, string list) Hashtbl.t;
  caller_map : (string, string list) Hashtbl.t;
  (* derived structure, computed once at build time (the record is
     immutable afterwards, so parallel engine workers can share it): *)
  scc_list : string list list;  (** reverse topological (callees first) *)
  levels : int array;  (** per SCC index: DAG depth from the leaves *)
  recursive_set : (string, unit) Hashtbl.t;
}

(* Tarjan SCC; result in reverse topological order (callees first).  Note
   the recursion follows every callee name, so procedures that are called
   but never defined get their own singleton components too — downstream
   consumers (the engine's Merkle keys, the level schedule) rely on that. *)
let compute_sccs order callees_of =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (callees_of v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) order;
  (* Tarjan emits components in reverse topological order already *)
  List.rev !components

let build (m : Ir.module_) =
  let order = List.map (fun pu -> pu.Ir.pu_name) m.Ir.m_pus in
  let sites = ref [] in
  List.iter
    (fun pu ->
      Wn.preorder
        (fun w ->
          if w.Wn.operator = Wn.OPR_CALL then begin
            let callee = Ir.st_name m pu w.Wn.st_idx in
            sites :=
              {
                cs_caller = pu.Ir.pu_name;
                cs_callee = callee;
                cs_loc = w.Wn.linenum;
                cs_wn = w;
              }
              :: !sites
          end)
        pu.Ir.pu_body)
    m.Ir.m_pus;
  let sites = List.rev !sites in
  let callee_map = Hashtbl.create 16 in
  let caller_map = Hashtbl.create 16 in
  List.iter
    (fun name ->
      Hashtbl.replace callee_map name [];
      Hashtbl.replace caller_map name [])
    order;
  let push tbl key v =
    let cur = try Hashtbl.find tbl key with Not_found -> [] in
    if not (List.mem v cur) then Hashtbl.replace tbl key (cur @ [ v ])
  in
  List.iter
    (fun cs ->
      push callee_map cs.cs_caller cs.cs_callee;
      push caller_map cs.cs_callee cs.cs_caller)
    sites;
  let callees_of name =
    try Hashtbl.find callee_map name with Not_found -> []
  in
  let scc_list = compute_sccs order callees_of in
  let scc_arr = Array.of_list scc_list in
  let scc_index_tbl = Hashtbl.create 16 in
  Array.iteri
    (fun si scc -> List.iter (fun p -> Hashtbl.replace scc_index_tbl p si) scc)
    scc_arr;
  (* an SCC's level is one more than its deepest callee SCC: reverse
     topological order guarantees every callee SCC index is already done *)
  let levels = Array.make (Array.length scc_arr) 0 in
  Array.iteri
    (fun si scc ->
      levels.(si) <-
        List.fold_left
          (fun acc p ->
            List.fold_left
              (fun acc c ->
                match Hashtbl.find_opt scc_index_tbl c with
                | Some cj when cj <> si -> max acc (levels.(cj) + 1)
                | _ -> acc)
              acc (callees_of p))
          0 scc)
    scc_arr;
  let recursive_set = Hashtbl.create 16 in
  Array.iter
    (fun scc ->
      match scc with
      | [ p ] -> if List.mem p (callees_of p) then Hashtbl.replace recursive_set p ()
      | _ -> List.iter (fun p -> Hashtbl.replace recursive_set p ()) scc)
    scc_arr;
  {
    order;
    sites;
    callee_map;
    caller_map;
    scc_list;
    levels;
    recursive_set;
  }

let procs t = t.order
let callsites t = t.sites

let callees t name = try Hashtbl.find t.callee_map name with Not_found -> []
let callers t name = try Hashtbl.find t.caller_map name with Not_found -> []

let node_count t = List.length t.order

let edge_count t =
  List.fold_left (fun acc p -> acc + List.length (callees t p)) 0 t.order

let roots t = List.filter (fun p -> callers t p = []) t.order

let preorder t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec dfs p =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      out := p :: !out;
      List.iter dfs (callees t p)
    end
  in
  List.iter dfs (roots t);
  (* disconnected procedures still get visited *)
  List.iter dfs t.order;
  List.rev !out

let sccs t = t.scc_list
let scc_levels t = t.levels
let is_recursive t name = Hashtbl.mem t.recursive_set name

let to_dot t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph callgraph {\n  node [shape=ellipse];\n";
  List.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" p))
    t.order;
  List.iter
    (fun p ->
      List.iter
        (fun c -> Buffer.add_string buf (Printf.sprintf "  \"%s\" -> \"%s\";\n" p c))
        (callees t p))
    t.order;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_ascii_tree t =
  let buf = Buffer.create 512 in
  let visited = Hashtbl.create 16 in
  let rec walk depth p =
    Buffer.add_string buf
      (Printf.sprintf "%s- %s\n" (String.make (2 * depth) ' ') p);
    if not (Hashtbl.mem visited p) then begin
      Hashtbl.add visited p ();
      List.iter (walk (depth + 1)) (callees t p)
    end
  in
  List.iter (walk 0) (roots t);
  List.iter
    (fun p -> if not (Hashtbl.mem visited p) then walk 0 p)
    t.order;
  Buffer.add_string buf
    (Printf.sprintf "%d procedures, %d edges\n" (node_count t) (edge_count t));
  Buffer.contents buf
