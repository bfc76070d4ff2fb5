(* The fast solver's contract: the packed/pruned/memoized query layer must
   be answer-identical to the reference eliminator kept in
   [Linear.System.Reference] — on random small systems (including ones with
   fractional coefficients, which exercise the reference fallback) and on
   every corpus end-to-end, where the emitted .rgn/.dgn/.cfg bytes must not
   move at all. *)

open Numeric
open Linear

let r = Rat.of_int
let x = Var.fresh ~name:"sx" Var.Ivar
let y = Var.fresh ~name:"sy" Var.Ivar
let z = Var.fresh ~name:"sz" Var.Ivar
let e_of_int = Expr.of_int

(* ---------- generators ---------- *)

let gen_coeff = QCheck2.Gen.int_range (-3) 3

(* constraints over x, y, z; a slice of them equalities, and a slice with a
   denominator-2 coefficient so packing fails and the reference fallback
   kicks in *)
let gen_constr =
  QCheck2.Gen.(
    let* a = gen_coeff and* b = gen_coeff and* c = gen_coeff in
    let* k = int_range (-8) 8 in
    let* halve = frequencyl [ (4, false); (1, true) ] in
    let* eq = frequencyl [ (5, false); (1, true) ] in
    let ca = if halve then Rat.make a 2 else r a in
    let e =
      Expr.add (Expr.monom ca x)
        (Expr.add (Expr.monom (r b) y)
           (Expr.add (Expr.monom (r c) z) (e_of_int k)))
    in
    return (Constr.make e (if eq then Constr.Eq else Constr.Le)))

let box =
  [
    Constr.ge (Expr.var x) (e_of_int (-6));
    Constr.le (Expr.var x) (e_of_int 6);
    Constr.ge (Expr.var y) (e_of_int (-6));
    Constr.le (Expr.var y) (e_of_int 6);
    Constr.ge (Expr.var z) (e_of_int (-6));
    Constr.le (Expr.var z) (e_of_int 6);
  ]

let gen_system =
  QCheck2.Gen.(
    map
      (fun cs -> System.meet (System.of_list cs) (System.of_list box))
      (list_size (int_range 0 5) gen_constr))

let print_system s = Format.asprintf "%a" System.pp s
let print_constr c = Format.asprintf "%a" Constr.pp c

(* run [check] cold (memos cleared: the compute path) and again warm (the
   memo-hit path), and require both to agree with the reference answer *)
let cold_then_warm check =
  System.clear_cache ();
  let cold = check () in
  let warm = check () in
  cold && warm

let prop_feasible_agrees =
  QCheck2.Test.make ~name:"fast feasible = reference feasible" ~count:300
    gen_system ~print:print_system (fun s ->
      let expected = System.Reference.feasible s in
      cold_then_warm (fun () -> System.feasible s = expected))

let prop_implies_agrees =
  QCheck2.Test.make ~name:"fast implies = reference implies" ~count:300
    QCheck2.Gen.(pair gen_system gen_constr)
    ~print:QCheck2.Print.(pair print_system print_constr)
    (fun (s, c) ->
      let expected = System.Reference.implies s c in
      cold_then_warm (fun () -> System.implies s c = expected))

let prop_includes_agrees =
  QCheck2.Test.make ~name:"fast includes = reference includes" ~count:200
    QCheck2.Gen.(pair gen_system gen_system)
    ~print:QCheck2.Print.(pair print_system print_system)
    (fun (a, b) ->
      let expected = System.Reference.includes a b in
      cold_then_warm (fun () -> System.includes a b = expected))

let prop_disjoint_agrees =
  QCheck2.Test.make ~name:"fast disjoint = reference disjoint" ~count:200
    QCheck2.Gen.(pair gen_system gen_system)
    ~print:QCheck2.Print.(pair print_system print_system)
    (fun (a, b) ->
      let expected = System.Reference.disjoint a b in
      cold_then_warm (fun () -> System.disjoint a b = expected))

let rat_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Rat.equal a b
  | _ -> false

let prop_bounds_sample_agree =
  QCheck2.Test.make ~name:"bounds/sample = reference bounds/sample" ~count:200
    gen_system ~print:print_system (fun s ->
      let lo, hi = System.bounds x s
      and lo', hi' = System.Reference.bounds x s in
      rat_opt_equal lo lo' && rat_opt_equal hi hi'
      &&
      match (System.sample s, System.Reference.sample s) with
      | None, None -> true
      | Some a, Some b ->
        List.for_all (fun v -> Rat.equal (a v) (b v)) [ x; y; z ]
      | _ -> false)

(* ---------- end-to-end: corpora under the reference oracle ---------- *)

let corpus_files = function
  | "lu" -> Corpus.Nas_lu.files ()
  | "matrix" -> [ Corpus.Small.matrix_c ]
  | "fig1" -> [ Corpus.Small.fig1_f ]
  | "stride" -> [ Corpus.Small.stride_f ]
  | other -> Alcotest.failf "unknown corpus %s" other

let lower files = Whirl.Lower.lower (Lang.Frontend.load ~files)

let render (r : Ipa.Analyze.result) =
  let blocks =
    List.concat_map
      (fun (proc, cfg) ->
        Array.to_list
          (Array.map
             (fun (b : Cfg.block) ->
               {
                 Rgnfile.Files.cb_proc = proc;
                 cb_id = b.Cfg.id;
                 cb_label = b.Cfg.label;
                 cb_succs = b.Cfg.succs;
               })
             cfg.Cfg.blocks))
      r.Ipa.Analyze.r_cfgs
  in
  ( Rgnfile.Files.write_rgn r.Ipa.Analyze.r_rows,
    Rgnfile.Files.write_dgn r.Ipa.Analyze.r_dgn,
    Rgnfile.Files.write_cfg blocks )

let check_same_output name (rgn_a, dgn_a, cfg_a) (rgn_b, dgn_b, cfg_b) =
  Alcotest.(check bool) (name ^ " .rgn byte-identical") true (rgn_a = rgn_b);
  Alcotest.(check bool) (name ^ " .dgn byte-identical") true (dgn_a = dgn_b);
  Alcotest.(check bool) (name ^ " .cfg byte-identical") true (cfg_a = cfg_b)

(* the production core and the reference eliminator, each at jobs 1 and
   4, must emit the same project bytes *)
let test_corpora_identical () =
  List.iter
    (fun corpus ->
      let files = corpus_files corpus in
      let analyze jobs =
        System.clear_cache ();
        render (Engine.analyze ~jobs (lower files))
      in
      let base = analyze 1 in
      List.iter
        (fun jobs ->
          check_same_output
            (Printf.sprintf "%s fast jobs=%d" corpus jobs)
            base (analyze jobs);
          check_same_output
            (Printf.sprintf "%s reference jobs=%d" corpus jobs)
            base
            (System.Reference.run (fun () -> analyze jobs)))
        [ 1; 4 ])
    [ "lu"; "matrix"; "fig1"; "stride" ]

(* ---------- learned core: query sequences against shared systems ----------

   The learned contexts answer later queries from facts recorded by earlier
   ones (direction thresholds, variable bounds), so correctness depends on
   the whole query *sequence*, not single queries: ask every constraint
   twice against a shared feasible system and a shared infeasible one, and
   require each answer to equal the reference eliminator's.  (Clamped
   regions reuse these same systems through [Region.extent_check]; the
   corpus test below covers that end to end.) *)

let prop_learned_sequence =
  QCheck2.Test.make ~name:"learned context sequences = reference" ~count:150
    QCheck2.Gen.(pair gen_system (list_size (int_range 1 12) gen_constr))
    ~print:QCheck2.Print.(pair print_system (list print_constr))
    (fun (s, cs) ->
      System.clear_cache ();
      (* [s] contains [box] (x <= 6), so demanding x >= 10 is infeasible *)
      let infeas = System.add (Constr.ge (Expr.var x) (e_of_int 10)) s in
      List.for_all
        (fun c ->
          let expected = System.Reference.implies s c in
          let expected_inf = System.Reference.implies infeas c in
          System.implies s c = expected
          && System.implies s c = expected
          && System.implies infeas c = expected_inf
          && System.implies infeas c = expected_inf
          && System.feasible s = System.Reference.feasible s
          && not (System.feasible infeas))
        cs)

(* [clear_cache] must flush the learned contexts and activity tables along
   with the memos: two identical runs from a cleared state produce the same
   deterministic stats block and re-create the same number of contexts —
   nothing carried over can shift either *)
let test_no_cross_run_leak () =
  let files = corpus_files "matrix" in
  let run () =
    System.clear_cache ();
    let m0 = Obs.Metrics.snapshot () in
    ignore (render (Engine.analyze (lower files)));
    let d =
      Solver_stats.of_metrics (Obs.Metrics.diff (Obs.Metrics.snapshot ()) m0)
    in
    (Format.asprintf "%a" Solver_stats.pp_deterministic d,
     d.Solver_stats.ctx_contexts)
  in
  let det1, ctx1 = run () in
  let det2, ctx2 = run () in
  let det3, ctx3 = run () in
  Alcotest.(check string) "deterministic stats identical (run 2)" det1 det2;
  Alcotest.(check string) "deterministic stats identical (run 3)" det1 det3;
  Alcotest.(check int) "contexts re-created, not leaked (run 2)" ctx1 ctx2;
  Alcotest.(check int) "contexts re-created, not leaked (run 3)" ctx1 ctx3

let test_stats_move () =
  System.clear_cache ();
  let m0 = Obs.Metrics.snapshot () in
  let s = System.of_list box in
  ignore (System.feasible s);
  ignore (System.feasible s);
  let d =
    Solver_stats.of_metrics (Obs.Metrics.diff (Obs.Metrics.snapshot ()) m0)
  in
  Alcotest.(check int) "two queries" 2 d.Solver_stats.queries;
  Alcotest.(check int) "one miss" 1 d.Solver_stats.cache_misses;
  Alcotest.(check int) "one hit" 1 d.Solver_stats.cache_hits

(* [clear_cache] only bumps an epoch, so it may run while another domain
   is mid-query: every answer must still equal the reference's.  The
   expected answers are computed before the querying domain starts. *)
let test_clear_during_queries () =
  let rand = Random.State.make [| 18 |] in
  let systems = QCheck2.Gen.generate ~rand ~n:24 gen_system in
  let constrs = QCheck2.Gen.generate ~rand ~n:6 gen_constr in
  let keep = Var.Set.of_list [ x; y ] in
  let project s =
    System.eliminate_all (Var.Set.elements (Var.Set.diff (System.vars s) keep)) s
  in
  let expected =
    List.map
      (fun s ->
        ( System.Reference.feasible s,
          List.map (System.Reference.implies s) constrs,
          System.Reference.bounds x s,
          project s ))
      systems
  in
  (* the querying domain keeps going until at least 100 clears have
     happened while it ran *)
  let clears = Atomic.make 0 and done_ = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set done_ true) @@ fun () ->
        let c0 = Atomic.get clears in
        let ok = ref true and rounds = ref 0 in
        while !ok && (!rounds < 40 || Atomic.get clears - c0 < 100) do
          incr rounds;
          List.iter2
            (fun s (feas, impls, (lo, hi), proj) ->
              (* twice, so most second asks are memo hits *)
              for _ = 1 to 2 do
                let lo', hi' = System.bounds x s in
                ok :=
                  !ok
                  && System.feasible s = feas
                  && List.map (System.implies s) constrs = impls
                  && rat_opt_equal lo lo' && rat_opt_equal hi hi'
                  && System.equal (System.project_onto keep s) proj
              done)
            systems expected
        done;
        !ok)
  in
  while not (Atomic.get done_) do
    System.clear_cache ();
    Atomic.incr clears;
    (* leave records alive long enough to be hit *)
    for _ = 1 to 2000 do
      Domain.cpu_relax ()
    done
  done;
  Alcotest.(check bool) "every answer equals the reference" true
    (Domain.join worker)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_feasible_agrees;
    QCheck_alcotest.to_alcotest prop_implies_agrees;
    QCheck_alcotest.to_alcotest prop_includes_agrees;
    QCheck_alcotest.to_alcotest prop_disjoint_agrees;
    QCheck_alcotest.to_alcotest prop_bounds_sample_agree;
    QCheck_alcotest.to_alcotest prop_learned_sequence;
    Alcotest.test_case "corpora byte-identical (reference vs fast)" `Quick
      test_corpora_identical;
    Alcotest.test_case "clear_cache leaves no cross-run state" `Quick
      test_no_cross_run_leak;
    Alcotest.test_case "solver stats count queries and memo hits" `Quick
      test_stats_move;
    Alcotest.test_case "clear_cache is safe during queries" `Quick
      test_clear_during_queries;
  ]
