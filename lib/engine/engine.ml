(* The parallel, incremental analysis engine.

   One [run] performs the same pipeline as the serial
   [Ipa.Analyze.analyze] — layout, collection, bottom-up summary
   propagation, assembly — but fans the per-PU stages (collection, CFG
   construction) across a domain pool and reuses cached results keyed by
   content digests:

   - [key1 pu] digests the global symbol table, the PU's module position
     [i] and its content digest ([Whirl_io.pu_digest], every Mem_Loc left
     out: [Layout] derives those from the PU's table and [i]): it
     addresses the *local* collection result.  [Frontend_cache] carries
     the content digest, call sites and CFG of every PU it lowered or
     read back, so a warm run reads the body ([Ir.body]) only of a PU it
     collects again or could not carry values for;
   - [key2 pu] is a Merkle digest folding [key1] of the PU together with
     the [key2] of everything it (transitively) calls: it addresses the
     *interprocedural* summary, so editing one PU invalidates exactly that
     PU and its transitive callers.

   Determinism: a symbolic variable's id is computed from the PU's module
   position and st code ([Collect.sym_var]), never minted in schedule
   order, so a cache hit names the variables this run computes; every
   task writes only its own slot, and summary propagation runs
   level-by-level over the SCC DAG with the members of one SCC processed
   sequentially in call-graph order — the exact schedule the serial path
   uses.  Parallel, cached and serial runs therefore produce
   byte-identical outputs. *)

open Whirl

type config = {
  jobs : int;
  store : Engine_store.t option;
  keep_going : bool;
}

let config ?(jobs = 1) ?(workers = 0) ?store ?(keep_going = false) () =
  if workers <> 0 then
    invalid_arg
      "Engine.config: ~workers must be 0 (the process-shard pool was \
       removed; use ~jobs)";
  { jobs; store; keep_going }

module Stats = struct
  type phase = { ph_name : string; ph_wall : float; ph_alloc : float }

  type t = {
    s_jobs : int;
    s_pus : int;
    s_collect_hits : int;
    s_collect_misses : int;
    s_summary_hits : int;
    s_summary_misses : int;
    s_phases : phase list;
    s_total_wall : float;
    s_solver : Linear.Solver_stats.t;
  }

  let pp ppf t =
    Format.fprintf ppf "engine: %d job%s, %d PU%s@\n" t.s_jobs
      (if t.s_jobs = 1 then "" else "s")
      t.s_pus
      (if t.s_pus = 1 then "" else "s");
    Format.fprintf ppf "  cache: collect %d hit / %d miss, summary %d hit / %d miss@\n"
      t.s_collect_hits t.s_collect_misses t.s_summary_hits t.s_summary_misses;
    List.iter
      (fun p ->
        Format.fprintf ppf "  %-10s %8.3fs %10.1f kB@\n" p.ph_name p.ph_wall
          (p.ph_alloc /. 1024.))
      t.s_phases;
    Format.fprintf ppf "  %-10s %8.3fs@\n" "total" t.s_total_wall;
    Linear.Solver_stats.pp ppf t.s_solver

  let pp_deterministic ppf t =
    (* wall/alloc columns dropped, phase names kept in execution order;
       every number printed here is reproducible at any --jobs setting *)
    Format.fprintf ppf "engine: %d PU%s@\n" t.s_pus
      (if t.s_pus = 1 then "" else "s");
    Format.fprintf ppf "  cache: collect %d hit / %d miss, summary %d hit / %d miss@\n"
      t.s_collect_hits t.s_collect_misses t.s_summary_hits t.s_summary_misses;
    Format.fprintf ppf "  phases:";
    List.iter (fun p -> Format.fprintf ppf " %s" p.ph_name) t.s_phases;
    Format.fprintf ppf "@\n";
    Linear.Solver_stats.pp_deterministic ppf t.s_solver
end

type result = {
  e_result : Ipa.Analyze.result;
  e_stats : Stats.t;
  e_diags : Fault.Diag.t list;
  e_pus : Obs.Ledger.pu list;
}

let count_true a =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a

(* Conservative stand-ins for a PU whose analysis failed under
   [keep_going]: collection degrades to "no locally provable accesses"
   (the interprocedural layer stays sound because the PU's summary is
   forced to {!Ipa.Summary.opaque} below), the CFG to a bare
   entry->exit skeleton. *)
let empty_info pu =
  { Ipa.Collect.p_pu = pu; p_accesses = []; p_sites = [] }

let skeleton_cfg name =
  let entry =
    { Cfg.id = 0; n_stmts = 0; label = "entry"; succs = [ 1 ]; preds = [] }
  in
  let exit_ =
    { Cfg.id = 1; n_stmts = 0; label = "exit"; succs = []; preds = [ 0 ] }
  in
  { Cfg.proc = name; blocks = [| entry; exit_ |]; entry = 0; exit_ = 1 }

let c_isolated = Obs.Metrics.counter "engine.pu_isolated"

let diag_site_of_exn = function
  | Fault.Injected (site, _) -> Fault.site_name site
  | _ -> "engine"

let isolation_diag ~stage ~pu ~action e =
  let error = Printexc.to_string e in
  Obs.Metrics.Counter.incr c_isolated;
  Obs.Log.info "engine.pu_isolated"
    [ ("stage", stage); ("pu", pu); ("error", error) ];
  Fault.Diag.make ~site:(diag_site_of_exn e) ~pu ~action
    (Printf.sprintf "%s failed (%s); %s" stage error action)

(* Cumulative registry mirrors of the per-run cache counters, plus one
   latency histogram per pipeline phase. *)
let c_runs = Obs.Metrics.counter "engine.runs"
let c_collect_hits = Obs.Metrics.counter "engine.collect.hits"
let c_collect_misses = Obs.Metrics.counter "engine.collect.misses"
let c_summary_hits = Obs.Metrics.counter "engine.summary.hits"
let c_summary_misses = Obs.Metrics.counter "engine.summary.misses"

(* PU content digests computed, here or by [Frontend_cache] as it lowers;
   a carried digest is not counted *)
let c_digest_computed = Obs.Metrics.counter "engine.digest.computed"

(* the run's shape memo: regions collection asked for, and distinct shapes
   built (the memo's size at the end of the run) *)
let c_regions_requested = Obs.Metrics.counter "collect.regions.requested"
let c_regions_distinct = Obs.Metrics.counter "collect.regions.distinct"

let phase_hist =
  let tbl = Hashtbl.create 8 in
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
      let h = Obs.Metrics.histogram ("engine.phase." ^ name ^ ".wall_ns") in
      Hashtbl.replace tbl name h;
      h

let run_ ~carried (cfg : config) (m : Ir.module_) : result =
  let jobs = Engine_pool.resolve_jobs cfg.jobs in
  let metrics0 = Obs.Metrics.snapshot () in
  let t_start = Obs.Trace.now_ns () in
  let phases = ref [] in
  let timed name f =
    (* the phase's sink collects worker-domain allocation and busy time for
       every pool batch [f] issues with it; the coordinator's own delta is
       measured directly *)
    let sink = Obs.Sink.create () in
    let t0 = Obs.Trace.now_ns () in
    let a0 = Obs.Sink.allocated_bytes () in
    let r = Obs.Span.with_ ~cat:"phase" ~name (fun () -> f sink) in
    let wall_ns = Obs.Trace.now_ns () - t0 in
    let wall = float_of_int wall_ns /. 1e9 in
    let alloc = Obs.Sink.allocated_bytes () -. a0 +. Obs.Sink.alloc_bytes sink in
    if Obs.Metrics.enabled () then Obs.Hist.observe (phase_hist name) wall_ns;
    Obs.Log.debug "engine.phase" (fun () ->
        [
          ("name", name);
          ("wall_ms", Printf.sprintf "%.3f" (wall *. 1e3));
          ("alloc_kb", Printf.sprintf "%.1f" (alloc /. 1024.));
          ("worker_busy_ms",
           Printf.sprintf "%.3f" (float_of_int (Obs.Sink.busy_ns sink) /. 1e6));
        ]);
    phases :=
      { Stats.ph_name = name; ph_wall = wall; ph_alloc = alloc } :: !phases;
    r
  in
  let pus = Array.of_list m.Ir.m_pus in
  let n = Array.length pus in
  (* what the frontend carried names the record it returned: any other
     PU, a transformed one included, is read from its body here *)
  let carried =
    let a = Array.of_list carried in
    fun i ->
      if i < Array.length a && fst a.(i) == pus.(i) then Some (snd a.(i))
      else None
  in
  (* ---- prepare: layout, call graph --------------------------------- *)
  let cg =
    timed "prepare" (fun _ ->
        Layout.assign m;
        Ipa.Callgraph.build m
          ~sites:(fun i ->
            Option.map (fun c -> c.Engine_store.ca_sites) (carried i)))
  in
  let idx_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i pu -> Hashtbl.replace idx_of pu.Ir.pu_name i) pus;
  let idx name = Hashtbl.find_opt idx_of name in
  let pu_of name = Option.map (Array.get pus) (idx name) in
  (* ---- content digests: carried by the frontend, or computed ------- *)
  let key1 =
    timed "digest" (fun sink ->
        let gd = Whirl_io.symtab_digest m.Ir.m_global in
        let keys = Array.make n Digest.(string "") in
        let scratch = Domain.DLS.new_key Whirl_io.scratch in
        Engine_pool.run ~sink ~jobs
          (Array.init n (fun i () ->
               let d =
                 match carried i with
                 | Some c -> c.Engine_store.ca_digest
                 | None ->
                   Obs.Metrics.Counter.incr c_digest_computed;
                   Whirl_io.pu_digest (Domain.DLS.get scratch) m pus.(i)
               in
               keys.(i) <- Digest.string (gd ^ string_of_int i ^ d)));
        keys)
  in
  (* ---- collection + CFGs, one task per PU --------------------------- *)
  let infos : Ipa.Collect.pu_info option array = Array.make n None in
  let cfgs : Cfg.t option array = Array.make n None in
  let collect_hit = Array.make n false in
  (* per-PU fault isolation (only under [keep_going]): a poisoned PU gets
     conservative stand-ins and a structured diagnostic instead of killing
     the whole run.  Every slot is written only by the PU's own task, so
     diagnostics are deterministic whatever the pool schedule. *)
  let poisoned = Array.make n false in
  let pu_diags : Fault.Diag.t list array = Array.make n [] in
  timed "collect" (fun sink ->
      (* one region per access shape, for this run only *)
      let shapes = Ipa.Collect.shapes () in
      let task i () =
        let pu = pus.(i) in
        Obs.Span.with_ ~cat:"pu" ~name:("collect:" ^ pu.Ir.pu_name)
        @@ fun () ->
        (try
           Fault.inject Fault.Pool ~key:("collect:" ^ pu.Ir.pu_name);
           match cfg.store with
           | Some store -> (
             match Engine_store.find_collect store ~key:key1.(i) with
             | Some p ->
               collect_hit.(i) <- true;
               infos.(i) <-
                 Some
                   {
                     Ipa.Collect.p_pu = pu;
                     p_accesses = p.Engine_store.cp_accesses;
                     p_sites = p.Engine_store.cp_sites;
                   }
             | None -> infos.(i) <- Some (Ipa.Collect.run_pu shapes m pu))
           | None -> infos.(i) <- Some (Ipa.Collect.run_pu shapes m pu)
         with e when cfg.keep_going ->
           poisoned.(i) <- true;
           infos.(i) <- Some (empty_info pu);
           pu_diags.(i) <-
             isolation_diag ~stage:"collect" ~pu:pu.Ir.pu_name
               ~action:"opaque-summary" e
             :: pu_diags.(i));
        try
          cfgs.(i) <-
            Some
              (match carried i with
              | Some c -> c.Engine_store.ca_cfg
              | None -> Cfg.build pu)
        with e when cfg.keep_going ->
          poisoned.(i) <- true;
          cfgs.(i) <- Some (skeleton_cfg pu.Ir.pu_name);
          pu_diags.(i) <-
            isolation_diag ~stage:"cfg" ~pu:pu.Ir.pu_name
              ~action:"skeleton-cfg" e
            :: pu_diags.(i)
      in
      Engine_pool.run ~sink ~jobs (Array.init n task);
      Obs.Metrics.Counter.add c_regions_requested
        (Ipa.Collect.shapes_requested shapes);
      Obs.Metrics.Counter.add c_regions_distinct
        (Ipa.Collect.shapes_distinct shapes);
      match cfg.store with
      | None -> ()
      | Some store ->
        Array.iteri
          (fun i hit ->
            (* never persist a degraded collection result *)
            if (not hit) && not poisoned.(i) then
              match infos.(i) with
              | Some info ->
                Engine_store.add_collect store ~key:key1.(i)
                  {
                    Engine_store.cp_accesses = info.Ipa.Collect.p_accesses;
                    cp_sites = info.Ipa.Collect.p_sites;
                  }
              | None -> ())
          collect_hit);
  (* ---- summaries: Merkle keys, cache, then level-parallel SCCs ------ *)
  let summaries : Ipa.Summary.t option array = Array.make n None in
  let propagated : Ipa.Collect.access list array = Array.make n [] in
  let summary_hit = Array.make n false in
  let computed = Array.make n false in
  (* computed from a poisoned or tainted callee's stand-in: the summary is
     what this run could do, not what its key names, so it is never
     persisted (a later fault-free run would read it back as a hit) *)
  let tainted = Array.make n false in
  let key2 : Digest.t option array = Array.make n None in
  timed "summarize" (fun sink ->
      let scc_arr = Array.of_list (Ipa.Callgraph.sccs cg) in
      (* Merkle digests, bottom-up: [sccs] lists callee SCCs first.  The
         members of one SCC share their input digest (they are mutually
         recursive: any change to one member's inputs re-summarizes the
         whole cycle), differing only by a name suffix. *)
      Array.iter
        (fun scc ->
          let buf = Buffer.create 256 in
          List.iter
            (fun name ->
              (match idx name with
              | None -> Buffer.add_string buf "@undef-member"
              | Some i -> Buffer.add_string buf key1.(i));
              List.iter
                (fun c ->
                  Buffer.add_string buf c;
                  match idx c with
                  | None -> Buffer.add_string buf "@undef"
                  | Some j ->
                    if List.mem c scc then Buffer.add_string buf "@rec"
                    else
                      Buffer.add_string buf
                        (match key2.(j) with
                        | Some k -> k
                        | None -> "@pending"))
                (Ipa.Callgraph.callees cg name))
            scc;
          let inputs = Buffer.contents buf in
          List.iter
            (fun name ->
              match idx name with
              | None -> ()
              | Some i -> key2.(i) <- Some (Digest.string (inputs ^ name)))
            scc)
        scc_arr;
      (* cache lookups, one task per PU *)
      (match cfg.store with
      | None -> ()
      | Some store ->
        let task i () =
          match key2.(i) with
          | None -> ()
          | Some key -> (
            match Engine_store.find_summary store ~key with
            | Some p ->
              summary_hit.(i) <- true;
              summaries.(i) <- Some p.Engine_store.sp_summary;
              propagated.(i) <- p.Engine_store.sp_propagated
            | None -> ())
        in
        Engine_pool.run ~sink ~jobs (Array.init n task));
      (* level-parallel propagation over the SCC DAG: an SCC's level is one
         more than its deepest callee SCC, so everything a level-[l] SCC
         looks up was finished at level [< l].  Members of one SCC run
         sequentially in call-graph order; a not-yet-summarized member of
         the same cycle reads as [None] — the serial path's schedule. *)
      let level = Ipa.Callgraph.scc_levels cg in
      let lookup name =
        match idx name with Some j -> summaries.(j) | None -> None
      in
      let process_scc scc () =
        Obs.Span.with_ ~cat:"scc"
          ~name:("scc:" ^ String.concat "," scc)
          ~attrs:[ ("members", string_of_int (List.length scc)) ]
        @@ fun () ->
        List.iter
          (fun name ->
            match idx name with
            | None -> ()
            | Some i ->
              if not summary_hit.(i) then (
                match infos.(i) with
                | None -> ()
                | Some info ->
                  let pu = pus.(i) in
                  if poisoned.(i) then begin
                    (* collection already degraded: the only sound summary
                       is the worst-case one (whole-extent USE+DEF of every
                       global and formal array) *)
                    summaries.(i) <- Some (Ipa.Summary.opaque m pu);
                    propagated.(i) <- []
                  end
                  else
                    try
                      Fault.inject Fault.Pool ~key:("summarize:" ^ name);
                      tainted.(i) <-
                        List.exists
                          (fun c ->
                            match idx c with
                            | Some j -> poisoned.(j) || tainted.(j)
                            | None -> false)
                          (Ipa.Callgraph.callees cg name);
                      let exported, extra =
                        Obs.Span.with_ ~cat:"pu" ~name:("summarize:" ^ name)
                          (fun () ->
                            Ipa.Analyze.summarize_pu m ~pu_of ~lookup info)
                      in
                      summaries.(i) <- Some exported;
                      propagated.(i) <- extra;
                      computed.(i) <- true
                    with e when cfg.keep_going ->
                      poisoned.(i) <- true;
                      summaries.(i) <- Some (Ipa.Summary.opaque m pu);
                      propagated.(i) <- [];
                      pu_diags.(i) <-
                        isolation_diag ~stage:"summarize" ~pu:name
                          ~action:"opaque-summary" e
                        :: pu_diags.(i)))
          scc
      in
      let needs_work scc =
        List.exists
          (fun p ->
            match idx p with Some i -> not summary_hit.(i) | None -> false)
          scc
      in
      let max_level = Array.fold_left max 0 level in
      for lv = 0 to max_level do
        let work = ref [] in
        Array.iteri
          (fun si scc ->
            if level.(si) = lv && needs_work scc then work := scc :: !work)
          scc_arr;
        Engine_pool.run ~sink ~jobs
          (Array.of_list (List.rev_map (fun scc -> process_scc scc) !work))
      done;
      (* persist what this run computed *)
      match cfg.store with
      | None -> ()
      | Some store ->
        Array.iteri
          (fun i c ->
            if c && not tainted.(i) then
              match (key2.(i), summaries.(i)) with
              | Some key, Some s ->
                Engine_store.add_summary store ~key
                  {
                    Engine_store.sp_summary = s;
                    sp_propagated = propagated.(i);
                  }
              | _ -> ())
          computed;
        (* the last add of the run: seal its entries into one segment *)
        Engine_store.publish store);
  (* ---- assembly ----------------------------------------------------- *)
  let res =
    timed "assemble" (fun _ ->
        let infos_l =
          Array.to_list
            (Array.mapi
               (fun i pu ->
                 match infos.(i) with
                 | Some info -> (pu.Ir.pu_name, info)
                 | None -> assert false)
               pus)
        in
        let cfgs_l =
          Array.to_list
            (Array.mapi
               (fun i pu ->
                 match cfgs.(i) with
                 | Some c -> (pu.Ir.pu_name, c)
                 | None -> assert false)
               pus)
        in
        Ipa.Analyze.assemble m cg ~infos:infos_l
          ~summaries:(fun name ->
            match idx name with Some i -> summaries.(i) | None -> None)
          ~propagated:(fun name ->
            match idx name with Some i -> propagated.(i) | None -> [])
          ~cfgs:cfgs_l)
  in
  let diags =
    let per_pu =
      Array.to_list (Array.map (fun ds -> List.rev ds) pu_diags)
      |> List.concat
    in
    let store_diags =
      match cfg.store with
      | Some store -> Engine_store.drain_diags store
      | None -> []
    in
    per_pu @ store_diags
  in
  let collect_hits = count_true collect_hit in
  let summary_hits = count_true summary_hit in
  Obs.Metrics.Counter.incr c_runs;
  Obs.Metrics.Counter.add c_collect_hits collect_hits;
  Obs.Metrics.Counter.add c_collect_misses (n - collect_hits);
  Obs.Metrics.Counter.add c_summary_hits summary_hits;
  Obs.Metrics.Counter.add c_summary_misses (n - summary_hits);
  let stats =
    {
      Stats.s_jobs = jobs;
      s_pus = n;
      s_collect_hits = collect_hits;
      s_collect_misses = n - collect_hits;
      s_summary_hits = summary_hits;
      s_summary_misses = n - summary_hits;
      s_phases = List.rev !phases;
      s_total_wall = float_of_int (Obs.Trace.now_ns () - t_start) /. 1e9;
      s_solver =
        Linear.Solver_stats.of_metrics
          (Obs.Metrics.diff (Obs.Metrics.snapshot ()) metrics0);
    }
  in
  let e_pus =
    Array.to_list
      (Array.mapi
         (fun i pu ->
           {
             Obs.Ledger.pu_name = pu.Ir.pu_name;
             pu_file = pu.Ir.pu_file;
             pu_key1 = Digest.to_hex key1.(i);
             pu_key2 =
               (match key2.(i) with Some k -> Digest.to_hex k | None -> "");
             pu_collect_hit = collect_hit.(i);
             pu_summary_hit = summary_hit.(i);
             pu_callees = Ipa.Callgraph.callees cg pu.Ir.pu_name;
           })
         pus)
  in
  { e_result = res; e_stats = stats; e_diags = diags; e_pus }

(* A run that raises still publishes what it stored (each entry is the
   finished result of its key), so it leaves no temp file behind; after a
   normal run the store has nothing left to publish. *)
let run ?(carried = []) cfg m =
  Fun.protect
    ~finally:(fun () -> Option.iter Engine_store.publish cfg.store)
    (fun () -> run_ ~carried cfg m)

(* Drop-in successors of the removed [Ipa.Analyze.analyze{,_sources}]
   reference entry points: one engine run, no store, serial by default. *)

let analyze ?(jobs = 1) m = (run (config ~jobs ()) m).e_result

let analyze_sources ?(jobs = 1) files =
  analyze ~jobs (Whirl.Lower.lower (Lang.Frontend.load ~files))
