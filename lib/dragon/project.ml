type t = {
  name : string;
  dgn : Rgnfile.Files.dgn;
  rows : Rgnfile.Row.t list;
  cfg : Rgnfile.Files.cfg_block list;
  sources : (string * string) list;
}

let ( let* ) = Result.bind

let read_if_exists path =
  if Sys.file_exists path then Some (Rgnfile.Files.load ~path) else None

let load ~dir ~project =
  let path ext = Filename.concat dir (project ^ ext) in
  let* dgn_text =
    match read_if_exists (path ".dgn") with
    | Some t -> Ok t
    | None -> Error (Printf.sprintf "missing %s" (path ".dgn"))
  in
  let* dgn = Rgnfile.Files.parse_dgn dgn_text in
  let* rows =
    match read_if_exists (path ".rgn") with
    | Some t -> Rgnfile.Files.parse_rgn t
    | None -> Ok []
  in
  let* cfg =
    match read_if_exists (path ".cfg") with
    | Some t -> Rgnfile.Files.parse_cfg t
    | None -> Ok []
  in
  let sources =
    List.filter_map
      (fun (src, _lang) ->
        let candidates =
          [ src; Filename.concat dir src; Filename.concat dir (Filename.basename src) ]
        in
        List.find_map
          (fun p ->
            if Sys.file_exists p then Some (src, Rgnfile.Files.load ~path:p)
            else None)
          candidates)
      dgn.Rgnfile.Files.dgn_sources
  in
  Ok { name = project; dgn; rows; cfg; sources }

let make ~name ~dgn ?(rows = []) ?(cfg = []) ?(sources = []) () =
  { name; dgn; rows; cfg; sources }

let scopes t =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (r : Rgnfile.Row.t) ->
      let s = r.Rgnfile.Row.scope in
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.add seen s ();
        order := s :: !order
      end)
    t.rows;
  let rest = List.rev !order |> List.filter (fun s -> s <> "@") in
  if Hashtbl.mem seen "@" then "@" :: rest else rest

let procedures t =
  List.map (fun (name, _, _) -> name) t.dgn.Rgnfile.Files.dgn_procs

let rows_in_scope t scope =
  List.filter (fun (r : Rgnfile.Row.t) -> r.Rgnfile.Row.scope = scope) t.rows

let source t name =
  match List.assoc_opt name t.sources with
  | Some s -> Some s
  | None ->
    List.find_map
      (fun (p, s) ->
        if String.equal (Filename.basename p) name then Some s else None)
      t.sources
