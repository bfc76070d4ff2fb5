open Numeric
open Linear

let r = Rat.of_int

let ropt =
  Alcotest.(option (testable Rat.pp Rat.equal))

(* Helper variables.  Fresh per call site would defeat structural checks, so
   build a tiny fixed universe. *)
let x = Var.fresh ~name:"x" Var.Ivar
let y = Var.fresh ~name:"y" Var.Ivar
let z = Var.fresh ~name:"z" Var.Ivar
let n = Var.fresh ~name:"n" Var.Sym

let e_of_int = Expr.of_int

let test_expr_basic () =
  let e = Expr.add (Expr.monom (r 2) x) (Expr.add (Expr.var y) (e_of_int 3)) in
  Alcotest.(check bool) "coeff x" true (Rat.equal (r 2) (Expr.coeff x e));
  Alcotest.(check bool) "coeff y" true (Rat.equal (r 1) (Expr.coeff y e));
  Alcotest.(check bool) "coeff z" true (Rat.equal (r 0) (Expr.coeff z e));
  Alcotest.(check bool) "constant" true (Rat.equal (r 3) (Expr.constant e));
  Alcotest.(check int) "vars" 2 (List.length (Expr.vars e));
  Alcotest.(check bool) "mem" true (Expr.mem x e);
  Alcotest.(check bool) "not mem" false (Expr.mem z e)

let test_expr_cancellation () =
  let e = Expr.sub (Expr.var x) (Expr.var x) in
  Alcotest.(check bool) "x - x = 0" true (Expr.is_const e);
  Alcotest.(check bool) "equals zero" true (Expr.equal Expr.zero e)

let test_expr_subst () =
  (* x := y + 1 in 2x + 3  gives  2y + 5 *)
  let e = Expr.add (Expr.monom (r 2) x) (e_of_int 3) in
  let s = Expr.subst x (Expr.add (Expr.var y) (e_of_int 1)) e in
  Alcotest.(check bool) "subst coeff" true (Rat.equal (r 2) (Expr.coeff y s));
  Alcotest.(check bool) "subst const" true (Rat.equal (r 5) (Expr.constant s));
  Alcotest.(check bool) "x gone" false (Expr.mem x s)

let test_expr_eval () =
  let e = Expr.add (Expr.monom (r 2) x) (Expr.add (Expr.monom (r (-1)) y) (e_of_int 7)) in
  let v var = if Var.equal var x then r 3 else r 4 in
  Alcotest.(check bool) "eval" true (Rat.equal (r 9) (Expr.eval v e))

let test_constr_normalization () =
  (* x/2 + 1/3 <= 0 normalizes to 3x + 2 <= 0 *)
  let e = Expr.add (Expr.monom (Rat.make 1 2) x) (Expr.const (Rat.make 1 3)) in
  let c = Constr.make e Constr.Le in
  Alcotest.(check bool) "int coeff" true
    (Rat.equal (r 3) (Expr.coeff x (Constr.expr c)));
  Alcotest.(check bool) "int const" true
    (Rat.equal (r 2) (Expr.constant (Constr.expr c)));
  (* scaled versions are structurally equal *)
  let c2 = Constr.make (Expr.scale (r 6) e) Constr.Le in
  Alcotest.(check bool) "scale-invariant" true (Constr.equal c c2)

let test_constr_trivial () =
  Alcotest.(check (option bool)) "true" (Some true)
    (Constr.is_trivial (Constr.make (e_of_int (-1)) Constr.Le));
  Alcotest.(check (option bool)) "false" (Some false)
    (Constr.is_trivial (Constr.make (e_of_int 1) Constr.Le));
  Alcotest.(check (option bool)) "eq false" (Some false)
    (Constr.is_trivial (Constr.make (e_of_int 1) Constr.Eq));
  Alcotest.(check (option bool)) "nontrivial" None
    (Constr.is_trivial (Constr.make (Expr.var x) Constr.Le))

(* System describing a loop nest:  1 <= x <= 10,  x <= y <= x + 2. *)
let loopish =
  System.of_list
    [
      Constr.ge (Expr.var x) (e_of_int 1);
      Constr.le (Expr.var x) (e_of_int 10);
      Constr.ge (Expr.var y) (Expr.var x);
      Constr.le (Expr.var y) (Expr.add (Expr.var x) (e_of_int 2));
    ]

let test_feasible () =
  Alcotest.(check bool) "loopish feasible" true (System.feasible loopish);
  Alcotest.(check bool) "top feasible" true (System.feasible System.top);
  Alcotest.(check bool) "bottom infeasible" false (System.feasible System.bottom);
  let contradiction =
    System.of_list
      [ Constr.ge (Expr.var x) (e_of_int 5); Constr.le (Expr.var x) (e_of_int 4) ]
  in
  Alcotest.(check bool) "x>=5 & x<=4" false (System.feasible contradiction)

let test_eliminate_bounds () =
  (* Eliminating x from loopish must leave 1 <= y <= 12. *)
  let s = System.eliminate x loopish in
  let lo, hi = System.bounds y s in
  Alcotest.check ropt "y lower" (Some (r 1)) lo;
  Alcotest.check ropt "y upper" (Some (r 12)) hi

let test_bounds_subscript () =
  (* d0 = 2x + 3 with 1 <= x <= 10: d0 in [5, 23]. *)
  let d0 = Var.subscript 0 in
  let s =
    System.of_list
      [
        Constr.eq (Expr.var d0) (Expr.add (Expr.monom (r 2) x) (e_of_int 3));
        Constr.ge (Expr.var x) (e_of_int 1);
        Constr.le (Expr.var x) (e_of_int 10);
      ]
  in
  let lo, hi = System.bounds d0 s in
  Alcotest.check ropt "lb" (Some (r 5)) lo;
  Alcotest.check ropt "ub" (Some (r 23)) hi

let test_bounds_symbolic () =
  (* 1 <= x <= n: no constant bounds on x above, constant 1 below after
     projecting n away leaves nothing: check unbounded reported. *)
  let s =
    System.of_list
      [ Constr.ge (Expr.var x) (e_of_int 1); Constr.le (Expr.var x) (Expr.var n) ]
  in
  let lo, hi = System.bounds x s in
  Alcotest.check ropt "lb" (Some (r 1)) lo;
  Alcotest.check ropt "ub unbounded" None hi

let test_equality_substitution () =
  (* x = y + 1 and y = 3 force x = 4. *)
  let s =
    System.of_list
      [
        Constr.eq (Expr.var x) (Expr.add (Expr.var y) (e_of_int 1));
        Constr.eq (Expr.var y) (e_of_int 3);
      ]
  in
  let lo, hi = System.bounds x s in
  Alcotest.check ropt "x = 4 lo" (Some (r 4)) lo;
  Alcotest.check ropt "x = 4 hi" (Some (r 4)) hi

let test_implies_includes () =
  let box lo hi =
    System.of_list
      [ Constr.ge (Expr.var x) (e_of_int lo); Constr.le (Expr.var x) (e_of_int hi) ]
  in
  Alcotest.(check bool) "smaller box included" true
    (System.includes (box 1 10) (box 2 5));
  Alcotest.(check bool) "larger box not included" false
    (System.includes (box 2 5) (box 1 10));
  Alcotest.(check bool) "self included" true
    (System.includes (box 1 10) (box 1 10));
  Alcotest.(check bool) "implies member" true
    (System.implies (box 2 5) (Constr.le (Expr.var x) (e_of_int 7)));
  Alcotest.(check bool) "not implies" false
    (System.implies (box 2 5) (Constr.le (Expr.var x) (e_of_int 4)))

let test_disjoint () =
  let box v lo hi =
    System.of_list
      [ Constr.ge (Expr.var v) (e_of_int lo); Constr.le (Expr.var v) (e_of_int hi) ]
  in
  Alcotest.(check bool) "disjoint boxes" true
    (System.disjoint (box x 1 5) (box x 6 10));
  Alcotest.(check bool) "touching boxes overlap" false
    (System.disjoint (box x 1 5) (box x 5 10));
  (* different variables: product space, never disjoint *)
  Alcotest.(check bool) "independent vars" false
    (System.disjoint (box x 1 5) (box y 6 10))

let test_sample () =
  match System.sample loopish with
  | None -> Alcotest.fail "loopish should be feasible"
  | Some v ->
    List.iter
      (fun c ->
        Alcotest.(check bool)
          (Format.asprintf "sample satisfies %a" Constr.pp c)
          true (Constr.holds v c))
      (System.to_list loopish)

let test_sample_infeasible () =
  Alcotest.(check bool) "no sample" true (System.sample System.bottom = None)

(* Property: Fourier-Motzkin projection is sound and (rationally) exact on
   random box+diagonal systems.  We verify with brute-force integer
   enumeration over a small grid: a point satisfies the projection iff some
   integer extension nearly satisfies the original -- the "if" direction is
   rational-only, so we only check soundness (projection keeps all shadows)
   plus feasibility agreement. *)

let gen_coeff = QCheck2.Gen.int_range (-3) 3

let gen_system =
  QCheck2.Gen.(
    let gen_constr =
      map3
        (fun a b c ->
          Constr.make
            (Expr.add
               (Expr.monom (r a) x)
               (Expr.add (Expr.monom (r b) y) (e_of_int c)))
            Constr.Le)
        gen_coeff gen_coeff (int_range (-8) 8)
    in
    map
      (fun cs ->
        System.meet (System.of_list cs)
          (System.of_list
             [
               Constr.ge (Expr.var x) (e_of_int (-6));
               Constr.le (Expr.var x) (e_of_int 6);
               Constr.ge (Expr.var y) (e_of_int (-6));
               Constr.le (Expr.var y) (e_of_int 6);
             ]))
      (list_size (int_range 0 4) gen_constr))

let print_system s = Format.asprintf "%a" System.pp s

let holds_at s vx vy =
  let v var = if Var.equal var x then r vx else r vy in
  List.for_all (Constr.holds v) (System.to_list s)

let prop_projection_sound =
  QCheck2.Test.make ~name:"FM projection keeps every shadow" ~count:150
    gen_system ~print:print_system (fun s ->
      let proj = System.eliminate y s in
      let ok = ref true in
      for vx = -6 to 6 do
        for vy = -6 to 6 do
          if holds_at s vx vy then
            if not (holds_at proj vx 0 (* y gone *)) then ok := false
        done
      done;
      !ok)

let prop_projection_rationally_exact =
  QCheck2.Test.make ~name:"FM projection feasibility agrees" ~count:150
    gen_system ~print:print_system (fun s ->
      let proj = System.eliminate y (System.eliminate x s) in
      System.feasible s = System.feasible proj)

let prop_includes_reflexive =
  QCheck2.Test.make ~name:"includes reflexive" ~count:100 gen_system
    ~print:print_system (fun s -> System.includes s s)

let prop_sample_satisfies =
  QCheck2.Test.make ~name:"sample satisfies system" ~count:150 gen_system
    ~print:print_system (fun s ->
      match System.sample s with
      | None -> not (System.feasible s)
      | Some v -> List.for_all (Constr.holds v) (System.to_list s))

let test_simplify () =
  (* x <= 10 is implied by x <= 5 *)
  let s =
    System.of_list
      [
        Constr.le (Expr.var x) (e_of_int 10);
        Constr.le (Expr.var x) (e_of_int 5);
        Constr.ge (Expr.var x) (e_of_int 0);
      ]
  in
  let s' = System.simplify s in
  Alcotest.(check int) "redundant dropped" 2 (System.size s');
  Alcotest.(check bool) "same solutions" true (System.equal_semantic s s');
  (* idempotent *)
  Alcotest.(check int) "idempotent" 2 (System.size (System.simplify s'));
  (* nothing redundant: unchanged *)
  Alcotest.(check int) "minimal unchanged" (System.size loopish)
    (System.size (System.simplify loopish));
  (* integer entailment is not transitive: dropping x <= 6 and y <= 6
     after 2x + 3y <= 7 was dropped because of them leaves a set that no
     longer implies 2x + 3y <= 7 *)
  let s =
    System.of_list
      [
        Constr.le
          (Expr.add (Expr.monom (r 2) x) (Expr.monom (r 3) y))
          (e_of_int 7);
        Constr.ge (Expr.var x) (e_of_int (-6));
        Constr.le (Expr.var x) (e_of_int 6);
        Constr.ge (Expr.var y) (e_of_int (-6));
        Constr.le (Expr.var y) (e_of_int 6);
        Constr.le
          (Expr.add (Expr.monom (r 3) x) (Expr.monom (r 3) y))
          (e_of_int 2);
      ]
  in
  let s' = System.simplify s in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Format.asprintf "result implies %a" Constr.pp c)
        true
        (System.Reference.implies s' c))
    (System.to_list s);
  Alcotest.(check bool) "non-transitive case: same solutions" true
    (System.equal_semantic s s')

let prop_simplify_preserves =
  QCheck2.Test.make ~name:"simplify preserves solutions" ~count:100 gen_system
    ~print:print_system (fun s ->
      System.equal_semantic s (System.simplify s))

(* Shards and buckets must read disjoint hash bits.  Drawing the shard
   from the low bits (which the bucket index also reads) left 63 of every
   64 buckets empty and grew chains to ~100 at this size. *)
module Toy = struct
  type t = { id : int; v : int }

  let equal a b = a.v = b.v
  let hash t = Intern.mix 0x811c9dc5 t.v
  let with_id t id = { t with id }
  let name = "test_spread"
end

let test_intern_bucket_spread () =
  let module T = Intern.Make (Toy) in
  let n = 50_000 in
  for v = 0 to n - 1 do
    ignore (T.intern { Toy.id = -1; v })
  done;
  let st = T.stats () in
  Alcotest.(check int) "bindings" n st.Hashtbl.num_bindings;
  if st.max_bucket_length > 16 then
    Alcotest.failf "longest chain %d > 16 (%d bindings in %d buckets)"
      st.max_bucket_length st.num_bindings st.num_buckets

let suite =
  [
    Alcotest.test_case "simplify" `Quick test_simplify;
    QCheck_alcotest.to_alcotest prop_simplify_preserves;
    Alcotest.test_case "expr basics" `Quick test_expr_basic;
    Alcotest.test_case "expr cancellation" `Quick test_expr_cancellation;
    Alcotest.test_case "expr subst" `Quick test_expr_subst;
    Alcotest.test_case "expr eval" `Quick test_expr_eval;
    Alcotest.test_case "constr normalization" `Quick test_constr_normalization;
    Alcotest.test_case "constr trivial" `Quick test_constr_trivial;
    Alcotest.test_case "feasible" `Quick test_feasible;
    Alcotest.test_case "eliminate + bounds" `Quick test_eliminate_bounds;
    Alcotest.test_case "bounds of subscript" `Quick test_bounds_subscript;
    Alcotest.test_case "symbolic upper bound" `Quick test_bounds_symbolic;
    Alcotest.test_case "equality substitution" `Quick test_equality_substitution;
    Alcotest.test_case "implies/includes" `Quick test_implies_includes;
    Alcotest.test_case "disjoint" `Quick test_disjoint;
    Alcotest.test_case "sample" `Quick test_sample;
    Alcotest.test_case "sample infeasible" `Quick test_sample_infeasible;
    QCheck_alcotest.to_alcotest prop_projection_sound;
    QCheck_alcotest.to_alcotest prop_projection_rationally_exact;
    QCheck_alcotest.to_alcotest prop_includes_reflexive;
    QCheck_alcotest.to_alcotest prop_sample_satisfies;
    Alcotest.test_case "intern buckets spread across shards" `Quick
      test_intern_bucket_spread;
  ]
