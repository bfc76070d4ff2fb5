(* The additional HPC workloads: analysis sanity, parallelism verdicts,
   interpretation, and advisor output on each. *)

let analyze files = Engine.analyze_sources files

let first_loop pu =
  let loop = ref None in
  Whirl.Wn.preorder
    (fun w ->
      if w.Whirl.Wn.operator = Whirl.Wn.OPR_DO_LOOP && !loop = None then
        loop := Some w)
    (Whirl.Ir.body pu);
  Option.get !loop

let test_jacobi_analysis () =
  let r = analyze [ Corpus.Apps.jacobi2d ] in
  let m = r.Ipa.Analyze.r_module in
  (* sweep reads grid's interior neighborhood and writes next's interior *)
  let sweep = Ipa.Analyze.summary_of r "sweep" in
  let globals_touched =
    List.filter_map
      (fun (e : Ipa.Summary.entry) ->
        match e.Ipa.Summary.e_key with
        | Ipa.Summary.Kglobal g ->
          let pu = Option.get (Whirl.Ir.find_pu m "sweep") in
          Some (Whirl.Ir.st_name m pu g, e.Ipa.Summary.e_mode)
        | _ -> None)
      sweep
  in
  Alcotest.(check bool) "sweep uses grid" true
    (List.mem ("grid", Regions.Mode.USE) globals_touched);
  Alcotest.(check bool) "sweep defines next" true
    (List.mem ("next", Regions.Mode.DEF) globals_touched);
  Alcotest.(check bool) "sweep never writes grid" false
    (List.mem ("grid", Regions.Mode.DEF) globals_touched)

let test_jacobi_sweep_parallel () =
  (* the classic Jacobi property: the sweep loop is parallel because reads
     (grid) and writes (next) target different arrays *)
  let r = analyze [ Corpus.Apps.jacobi2d ] in
  let m = r.Ipa.Analyze.r_module in
  let sweep = Option.get (Whirl.Ir.find_pu m "sweep") in
  let v =
    Ipa.Parallel.loop_parallel m r.Ipa.Analyze.r_summaries sweep
      (first_loop sweep)
  in
  Alcotest.(check bool) "jacobi sweep parallel" true v.Ipa.Parallel.lv_parallel

let test_jacobi_runs () =
  let r = analyze [ Corpus.Apps.jacobi2d ] in
  let o = Interp.run r.Ipa.Analyze.r_module in
  Alcotest.(check bool) "produced output" true
    (String.length o.Interp.out_text > 0)

let test_matmul_analysis () =
  let r = analyze [ Corpus.Apps.matmul ] in
  (* dgemm: formal#2 (c) is DEF+USE, formals a and b are USE only *)
  let s = Ipa.Analyze.summary_of r "dgemm" in
  let modes_of p =
    List.filter_map
      (fun (e : Ipa.Summary.entry) ->
        if e.Ipa.Summary.e_key = Ipa.Summary.Kformal p then
          Some e.Ipa.Summary.e_mode
        else None)
      s
  in
  Alcotest.(check bool) "a read only" true
    (List.for_all (Regions.Mode.equal Regions.Mode.USE) (modes_of 0));
  Alcotest.(check bool) "b read only" true
    (List.for_all (Regions.Mode.equal Regions.Mode.USE) (modes_of 1));
  Alcotest.(check bool) "c written" true
    (List.exists (Regions.Mode.equal Regions.Mode.DEF) (modes_of 2))

let test_matmul_loop_verdicts () =
  let r = analyze [ Corpus.Apps.matmul ] in
  let m = r.Ipa.Analyze.r_module in
  let dgemm = Option.get (Whirl.Ir.find_pu m "dgemm") in
  (* the j loop writes disjoint columns of c: parallel *)
  let v =
    Ipa.Parallel.loop_parallel m r.Ipa.Analyze.r_summaries dgemm
      (first_loop dgemm)
  in
  Alcotest.(check bool) "outer j loop parallel" true v.Ipa.Parallel.lv_parallel;
  (* the k loop accumulates into the same c elements: not parallel *)
  let loops = ref [] in
  Whirl.Wn.preorder
    (fun w ->
      if w.Whirl.Wn.operator = Whirl.Wn.OPR_DO_LOOP then loops := w :: !loops)
    (Whirl.Ir.body dgemm);
  let k_loop = List.nth (List.rev !loops) 1 in
  let vk =
    Ipa.Parallel.loop_parallel m r.Ipa.Analyze.r_summaries dgemm k_loop
  in
  Alcotest.(check bool) "k loop not parallel" false vk.Ipa.Parallel.lv_parallel

let test_matmul_runs () =
  let r = analyze [ Corpus.Apps.matmul ] in
  let o = Interp.run r.Ipa.Analyze.r_module in
  Alcotest.(check bool) "produced output" true
    (String.length o.Interp.out_text > 0)

let test_heat3d_analysis () =
  let r = analyze [ Corpus.Apps.heat3d ] in
  let rows =
    List.filter
      (fun (row : Rgnfile.Row.t) ->
        row.Rgnfile.Row.array = "t0" && row.Rgnfile.Row.mode = "USE"
        && row.Rgnfile.Row.file = "heat3d.o")
      r.Ipa.Analyze.r_rows
  in
  (* the 7-point stencil references t0 seven times plus the center *)
  Alcotest.(check bool) "stencil uses recorded" true (List.length rows >= 7);
  (* the shifted neighbors give interior regions like 1:8 / 2:9 / 3:10 *)
  let ubs =
    List.map (fun (row : Rgnfile.Row.t) -> row.Rgnfile.Row.ub) rows
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "shifted regions present" true (List.length ubs >= 3)

let test_heat3d_dynamic_within_static () =
  let r = analyze [ Corpus.Apps.heat3d ] in
  let m = r.Ipa.Analyze.r_module in
  let static =
    List.concat_map
      (fun (_, (info : Ipa.Collect.pu_info)) ->
        List.filter_map
          (fun (a : Ipa.Collect.access) ->
            match a.Ipa.Collect.ac_mode with
            | Regions.Mode.USE | Regions.Mode.DEF ->
              Some
                ( Whirl.Ir.st_name m info.Ipa.Collect.p_pu a.Ipa.Collect.ac_st,
                  a.Ipa.Collect.ac_region )
            | _ -> None)
          info.Ipa.Collect.p_accesses)
      r.Ipa.Analyze.r_infos
  in
  let bad = ref 0 in
  let _ =
    Interp.run
      ~observer:(fun ev ->
        let covered =
          List.exists
            (fun (name, region) ->
              name = ev.Interp.ev_array
              && Regions.Region.contains_point region ev.Interp.ev_coords)
            static
        in
        if not covered then incr bad)
      m
  in
  Alcotest.(check int) "all dynamic accesses covered" 0 !bad

let test_apps_advisor () =
  List.iter
    (fun (_, files) ->
      let r = analyze files in
      let p =
        Dragon.Project.make ~name:"app" ~dgn:r.Ipa.Analyze.r_dgn
          ~rows:r.Ipa.Analyze.r_rows ~sources:files ()
      in
      let out = Dragon.Advisor.render p in
      Alcotest.(check bool) "advisor renders" true (String.length out > 0))
    Corpus.Apps.all

let suite =
  [
    Alcotest.test_case "jacobi: summaries" `Quick test_jacobi_analysis;
    Alcotest.test_case "jacobi: sweep parallel" `Quick test_jacobi_sweep_parallel;
    Alcotest.test_case "jacobi: runs" `Quick test_jacobi_runs;
    Alcotest.test_case "matmul: summaries" `Quick test_matmul_analysis;
    Alcotest.test_case "matmul: loop verdicts" `Quick test_matmul_loop_verdicts;
    Alcotest.test_case "matmul: runs" `Quick test_matmul_runs;
    Alcotest.test_case "heat3d: stencil rows" `Quick test_heat3d_analysis;
    Alcotest.test_case "heat3d: dynamic within static" `Quick
      test_heat3d_dynamic_within_static;
    Alcotest.test_case "advisor on all apps" `Quick test_apps_advisor;
  ]
