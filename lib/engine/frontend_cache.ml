(* The frontend as separate compilation with a per-file artifact cache.

   [Lang.Frontend.load] followed by [Whirl.Lower.lower] runs the same
   per-file functions over all files at once; this module runs them file
   by file and keeps each file's results in the store:

   - the interface (pass-1 global registrations, procedure names and
     kinds) under the file key, a digest of (path, contents) -- the path
     is part of the IR through [Loc.file];
   - the body artifact (procedure headers, sema warnings, the lowered PUs
     without their WN trees, and what the engine reads a tree for: the
     content digest, the call sites, the CFG) under (file key,
     environment digest): pass 2 and the lowering read other files only
     through the linked environment, and nothing after lowering reads a
     procedure's AST body;
   - the file's WN trees, under the same key in their own entry: the
     tree parts of the PUs' content images, the bytes their digests were
     computed over, so a tree read back is checked against the digest
     its PU carries before it is used.

   A file whose interface and body both hit is never parsed, and its
   trees are read only when some PU's body is asked for ([Ir.deferred]):
   a warm run whose collection hits reads none.  [Layout] runs later, in
   [Engine.run], so the stored PUs carry no Mem_Locs and the linked
   module is the one the uncached composition builds.  A PU's content
   digest leaves its Mem_Locs out, so the stored one is what the engine
   would compute after layout. *)

type result = {
  fr_module : Whirl.Ir.module_;
  fr_carried : (Whirl.Ir.pu * Engine_store.carried) list;
  fr_skipped : (string * Lang.Diag.t) list;
}

let c_iface_hits = Obs.Metrics.counter "frontend.artifact.interface.hits"
let c_iface_misses = Obs.Metrics.counter "frontend.artifact.interface.misses"
let c_body_hits = Obs.Metrics.counter "frontend.artifact.body.hits"
let c_body_misses = Obs.Metrics.counter "frontend.artifact.body.misses"
let c_body_decoded = Obs.Metrics.counter "frontend.body.decoded"
let c_body_relowered = Obs.Metrics.counter "frontend.body.relowered"
let c_digest_computed = Obs.Metrics.counter "engine.digest.computed"

(* images are built and checked in one buffer per domain: a deferred
   file's trees are decoded on whichever domain asks for them *)
let scratch = Domain.DLS.new_key Whirl.Whirl_io.scratch

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
  | Cached of unit_state * Digest.t * Engine_store.body_artifact
  | Fresh of Digest.t * Lang.Sema.body

let header (pu : Whirl.Ir.pu) carried =
  {
    Engine_store.ph_name = pu.Whirl.Ir.pu_name;
    ph_st = pu.Whirl.Ir.pu_st;
    ph_formals = pu.Whirl.Ir.pu_formals;
    ph_symtab = pu.Whirl.Ir.pu_symtab;
    ph_loc = pu.Whirl.Ir.pu_loc;
    ph_file = pu.Whirl.Ir.pu_file;
    ph_object = pu.Whirl.Ir.pu_object;
    ph_lang = pu.Whirl.Ir.pu_lang;
    ph_carried = carried;
  }

let pu_of_header (h : Engine_store.pu_header) body =
  {
    Whirl.Ir.pu_name = h.Engine_store.ph_name;
    pu_st = h.Engine_store.ph_st;
    pu_formals = h.Engine_store.ph_formals;
    pu_body = body;
    pu_symtab = h.Engine_store.ph_symtab;
    pu_loc = h.Engine_store.ph_loc;
    pu_file = h.Engine_store.ph_file;
    pu_object = h.Engine_store.ph_object;
    pu_lang = h.Engine_store.ph_lang;
  }

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
  let skipped, env, prog, bodies =
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
          (* a body artifact without its trees counts as a miss: the file
             is lowered again and its entries written again *)
          let cached =
            Option.bind store (fun s ->
                if Engine_store.has_trees s ~key then
                  Engine_store.find_body s ~key
                else None)
          in
          match cached with
          | Some ba ->
            count c_body_hits;
            Lang.Sema.add_body linker ba.Engine_store.ba_body;
            Cached (u, key, ba)
          | None ->
            count c_body_misses;
            Fresh (key, Lang.Sema.check_unit linker (parse u)))
        units
    in
    (List.rev skipped, env, Lang.Sema.finish linker, bodies)
  in
  Obs.Span.with_ ~cat:"phase" ~name:"lower" @@ fun () ->
  let g = Whirl.Lower.globals prog in
  (* set once the module is assembled, before any body can be asked for *)
  let module_ = ref None in
  let digest pu =
    Obs.Metrics.Counter.incr c_digest_computed;
    Whirl.Whirl_io.pu_digest (Domain.DLS.get scratch) (Option.get !module_) pu
  in
  (* A cached file's trees, read on the first demand for any of its
     bodies and decoded only if each hashes, behind its PU's header, to
     the digest the PU carries.  A missing, unreadable or mismatched entry
     (the store has recorded why) is recovered by lowering the file again
     against this run's linked environment; the result must be what the
     carried digests name. *)
  let trees u key (ba : Engine_store.body_artifact) pus () =
    let heads = ba.Engine_store.ba_pus in
    let want (h : Engine_store.pu_header) =
      h.Engine_store.ph_carried.Engine_store.ca_digest
    in
    let decode image =
      Whirl.Whirl_io.decode_trees (Domain.DLS.get scratch)
        (Option.get !module_)
        (List.map2 (fun pu h -> (pu, want h)) !pus heads)
        image
    in
    match find (fun s ~key -> Engine_store.find_trees s ~key ~decode) key with
    | Some ws ->
      Obs.Metrics.Counter.incr c_body_decoded;
      ws
    | None ->
      Obs.Metrics.Counter.incr c_body_relowered;
      let body = Lang.Sema.check_unit (Lang.Sema.linker env) (parse u) in
      Array.of_list
        (List.map2
           (fun pi h ->
             let pu = Whirl.Lower.lower_proc g pi in
             if digest pu <> want h then
               failwith
                 (Printf.sprintf "%s: %s re-lowered differs from its artifact"
                    u.u_name pu.Whirl.Ir.pu_name);
             Whirl.Ir.body pu)
           body.Lang.Sema.b_procs heads)
  in
  let lowered =
    List.map
      (fun b ->
        match b with
        | Cached (u, key, ba) ->
          let heads = ba.Engine_store.ba_pus in
          (* the loader checks each tree against the PU it belongs to,
             and those PUs are made from the bodies it fills *)
          let pus = ref [] in
          let bodies =
            Whirl.Ir.deferred (List.length heads) (trees u key ba pus)
          in
          pus := List.map2 pu_of_header heads bodies;
          (b, !pus)
        | Fresh (_, body) ->
          (b, List.map (Whirl.Lower.lower_proc g) body.Lang.Sema.b_procs))
      bodies
  in
  let m = Whirl.Lower.assemble g prog (List.concat_map snd lowered) in
  module_ := Some m;
  (* a PU lowered here carries what the engine would read its body for;
     with a store, its digest comes from the image its tree entry stores *)
  let carried =
    List.concat_map
      (fun (b, pus) ->
        match b with
        | Cached (_, _, ba) ->
          List.map2
            (fun pu h -> (pu, h.Engine_store.ph_carried))
            pus ba.Engine_store.ba_pus
        | Fresh (key, body) ->
          let digests, image =
            match store with
            | None -> (List.map digest pus, None)
            | Some _ ->
              let ds, image =
                Whirl.Whirl_io.encode_trees (Domain.DLS.get scratch) m pus
              in
              Obs.Metrics.Counter.add c_digest_computed (List.length ds);
              (ds, Some image)
          in
          let cs =
            List.map2
              (fun pu d ->
                {
                  Engine_store.ca_digest = d;
                  ca_sites = Ipa.Callgraph.sites_of m pu;
                  ca_cfg = Cfg.build pu;
                })
              pus digests
          in
          add Engine_store.add_body key
            {
              Engine_store.ba_body =
                { body with
                  Lang.Sema.b_procs =
                    List.map Lang.Sema.header body.Lang.Sema.b_procs };
              ba_pus = List.map2 header pus cs;
            };
          Option.iter (add Engine_store.add_trees key) image;
          List.combine pus cs)
      lowered
  in
  { fr_module = m; fr_carried = carried; fr_skipped = skipped }
