(* The paper's Fig 1 scenario: two procedures called in the same loop touch
   disjoint halves of a shared array, so they can run concurrently — and the
   analysis proves it interprocedurally.

   Run with: dune exec examples/autoparallel.exe *)

let () =
  let result = Engine.analyze_sources [ Corpus.Small.fig1_f ] in
  let m = result.Ipa.Analyze.r_module in
  let summaries = result.Ipa.Analyze.r_summaries in

  (* the DEF/USE regions each callee contributes, as the tool displays them *)
  print_endline "### Interprocedural regions (triplet notation)";
  List.iter
    (fun proc ->
      let pu = Option.get (Whirl.Ir.find_pu m proc) in
      Format.printf "@[<v 2>%s:@,%a@]@." proc (Ipa.Summary.pp m pu)
        (Ipa.Analyze.summary_of result proc))
    [ "p1"; "p2"; "add" ];

  (* Bernstein's conditions over the translated summaries at the two call
     sites inside add's j-loop *)
  let info = List.assoc "add" result.Ipa.Analyze.r_infos in
  let caller = info.Ipa.Collect.p_pu in
  (match info.Ipa.Collect.p_sites with
  | [ s1; s2 ] ->
    let conflicts = Ipa.Parallel.sites_independent m summaries ~caller s1 s2 in
    if conflicts = [] then
      print_endline
        "call p1(a, j) and call p2(a, j) are INDEPENDENT: both procedures \
         can concurrently and safely be parallelized (Fig 1's conclusion)"
    else begin
      print_endline "conflicts found:";
      List.iter
        (fun c ->
          Format.printf "  %s: %s region %a vs %s region %a@."
            c.Ipa.Parallel.c_array
            (Regions.Mode.to_string c.Ipa.Parallel.c_mode1)
            Regions.Region.pp c.Ipa.Parallel.c_region1
            (Regions.Mode.to_string c.Ipa.Parallel.c_mode2)
            Regions.Region.pp c.Ipa.Parallel.c_region2)
        conflicts
    end
  | _ -> prerr_endline "unexpected call-site structure");

  (* loop-level verdicts *)
  print_endline "### Loop parallelism";
  List.iter
    (fun proc ->
      let pu = Option.get (Whirl.Ir.find_pu m proc) in
      let loop = ref None in
      Whirl.Wn.preorder
        (fun w ->
          if w.Whirl.Wn.operator = Whirl.Wn.OPR_DO_LOOP && !loop = None then
            loop := Some w)
        (Whirl.Ir.body pu);
      match !loop with
      | None -> ()
      | Some l ->
        let v = Ipa.Parallel.loop_parallel m summaries pu l in
        Format.printf "outer loop of %-5s parallelizable=%b" proc
          v.Ipa.Parallel.lv_parallel;
        if v.Ipa.Parallel.lv_private_scalars <> [] then
          Format.printf " (privatize: %s)"
            (String.concat ", " v.Ipa.Parallel.lv_private_scalars);
        Format.printf "@.")
    [ "p1"; "p2"; "add" ]
