(* The frontend as separate compilation with a per-file artifact cache.

   [Lang.Frontend.load] followed by [Whirl.Lower.lower] runs the same
   per-file functions over all files at once; this module runs them file
   by file and keeps each file's results in the store:

   - the interface (pass-1 global registrations, procedure names and
     kinds) under the file key, a digest of (path, contents) -- the path
     is part of the IR through [Loc.file];
   - the body (checked [proc_info]s, sema warnings, lowered PUs) under
     (file key, environment digest): pass 2 and the lowering read other
     files only through the linked environment.

   A file whose interface and body both hit is never parsed.  [Layout]
   runs later, in [Engine.run], so the stored PUs carry no Mem_Locs and
   the linked module is the one the uncached composition builds. *)

type result = {
  fr_module : Whirl.Ir.module_;
  fr_skipped : (string * Lang.Diag.t) list;
}

let c_iface_hits = Obs.Metrics.counter "frontend.artifact.interface.hits"
let c_iface_misses = Obs.Metrics.counter "frontend.artifact.interface.misses"
let c_body_hits = Obs.Metrics.counter "frontend.artifact.body.hits"
let c_body_misses = Obs.Metrics.counter "frontend.artifact.body.misses"

let file_key name contents =
  let b = Buffer.create (String.length name + String.length contents + 16) in
  Buffer.add_string b (string_of_int (String.length name));
  Buffer.add_char b ':';
  Buffer.add_string b name;
  Buffer.add_string b contents;
  Digest.string (Buffer.contents b)

type unit_state = {
  u_name : string;
  u_src : string;
  u_key : Digest.t;
  u_iface : Lang.Sema.interface;
  u_ast : Lang.Ast.unit_ option;  (* parsed this run *)
}

type unit_body =
  | Cached of Whirl.Ir.pu list
  | Fresh of Digest.t * Lang.Sema.body

let load ?store ?(keep_going = false) files =
  (* artifacts live on disk only: without a directory there is nothing to
     reuse, and [load] is the plain composition *)
  let store =
    match store with
    | Some s when Engine_store.dir s <> None -> Some s
    | _ -> None
  in
  let count c = if store <> None then Obs.Metrics.Counter.incr c in
  let find f key = Option.bind store (fun s -> f s ~key) in
  let add f key v = Option.iter (fun s -> f s ~key v) store in
  let parse u =
    match u.u_ast with
    | Some ast -> ast
    | None -> Lang.Frontend.parse_string ~file:u.u_name u.u_src
  in
  (* the artifacts this load adds become one segment, also when it raises *)
  Fun.protect ~finally:(fun () -> Option.iter Engine_store.publish store)
  @@ fun () ->
  let skipped, prog, bodies =
    Obs.Span.with_ ~cat:"phase" ~name:"frontend" @@ fun () ->
    (* pass 1: one interface per file *)
    let units, skipped =
      List.fold_left
        (fun (units, skipped) (name, src) ->
          let key = file_key name src in
          let unit_ iface ast =
            { u_name = name; u_src = src; u_key = key; u_iface = iface;
              u_ast = ast }
          in
          match find Engine_store.find_interface key with
          | Some iface ->
            count c_iface_hits;
            (unit_ iface None :: units, skipped)
          | None -> (
            count c_iface_misses;
            match Lang.Frontend.parse_string ~file:name src with
            | ast ->
              let iface = Lang.Sema.interface ast in
              add Engine_store.add_interface key iface;
              (unit_ iface (Some ast) :: units, skipped)
            | exception Lang.Diag.Frontend_error d when keep_going ->
              (* never cached: the next run reports it again *)
              (units, (name, d) :: skipped)))
        ([], []) files
    in
    (* link, then pass 2 per file *)
    Obs.Span.with_ ~cat:"phase" ~name:"sema" @@ fun () ->
    let units = List.rev units in
    let env = Lang.Sema.link (List.map (fun u -> u.u_iface) units) in
    let env_key = Digest.to_hex (Lang.Sema.env_digest env) in
    let linker = Lang.Sema.linker env in
    let bodies =
      List.map
        (fun u ->
          let key = Digest.string (Digest.to_hex u.u_key ^ env_key) in
          match find Engine_store.find_body key with
          | Some ba ->
            count c_body_hits;
            Lang.Sema.add_body linker ba.Engine_store.ba_body;
            Cached ba.Engine_store.ba_pus
          | None ->
            count c_body_misses;
            Fresh (key, Lang.Sema.check_unit linker (parse u)))
        units
    in
    (List.rev skipped, Lang.Sema.finish linker, bodies)
  in
  let m =
    Obs.Span.with_ ~cat:"phase" ~name:"lower" @@ fun () ->
    let g = Whirl.Lower.globals prog in
    let pus =
      List.concat_map
        (function
          | Cached pus -> pus
          | Fresh (key, body) ->
            let pus =
              List.map (Whirl.Lower.lower_proc g) body.Lang.Sema.b_procs
            in
            add Engine_store.add_body key
              { Engine_store.ba_body = body; ba_pus = pus };
            pus)
        bodies
    in
    Whirl.Lower.assemble g prog pus
  in
  { fr_module = m; fr_skipped = skipped }
