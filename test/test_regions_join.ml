(* The hash-consed region algebra: interning soundness (equal ids iff
   structurally equal after normalization), and the n-way union and the
   bucketed summary builder against their reference folds.  End-to-end
   byte-identity of the production join against the reference eliminator
   lives in the solver and engine suites. *)

open QCheck2

let same_region (a : Regions.Region.t) (b : Regions.Region.t) =
  a.Regions.Region.ndims = b.Regions.Region.ndims
  && Linear.System.equal a.Regions.Region.sys b.Regions.Region.sys
  && Regions.Region.equal_display a b
  && a.Regions.Region.exact = b.Regions.Region.exact

(* ---- generators ------------------------------------------------------ *)

let d0 = Linear.Var.subscript 0
let d1 = Linear.Var.subscript 1

(* constraints over the two subscript dimensions, built from the public
   constructors only (so every term goes through the interner) *)
let gen_constr =
  Gen.(
    let* c = int_range (-10) 10 in
    let* dk = oneofl [ d0; d1 ] in
    oneofl
      [
        Linear.Constr.ge (Linear.Expr.var dk) (Linear.Expr.of_int c);
        Linear.Constr.le (Linear.Expr.var dk) (Linear.Expr.of_int c);
        Linear.Constr.le (Linear.Expr.var d0)
          (Linear.Expr.add (Linear.Expr.var d1) (Linear.Expr.of_int c));
        Linear.Constr.eq (Linear.Expr.var dk) (Linear.Expr.of_int c);
      ])

let gen_constrs = Gen.(list_size (int_range 1 4) gen_constr)

let gen_region =
  Gen.(
    let* cs = gen_constrs in
    let* exact = bool in
    return
      (Regions.Region.make ~ndims:2
         ~sys:(Linear.System.of_list cs)
         ~strides:[ Regions.Region.Sconst 1; Regions.Region.Sconst 1 ]
         ~exact))

(* ---- interning soundness --------------------------------------------- *)

let test_sharing () =
  let open Linear in
  let e1 = Expr.add (Expr.add (Expr.var d0) (Expr.var d1)) (Expr.of_int 3) in
  let e2 = Expr.add (Expr.var d0) (Expr.add (Expr.var d1) (Expr.of_int 3)) in
  Alcotest.(check bool) "assoc-equal exprs share one node" true (e1 == e2);
  Alcotest.(check int) "same id" (Expr.id e1) (Expr.id e2);
  let c1 = Constr.le e1 (Expr.of_int 7) in
  let c2 = Constr.le e2 (Expr.of_int 7) in
  Alcotest.(check bool) "normal-equal constrs share one node" true (c1 == c2);
  let s1 = System.of_list [ c1; Constr.ge (Expr.var d0) (Expr.of_int 0) ] in
  let s2 = System.of_list [ Constr.ge (Expr.var d0) (Expr.of_int 0); c2 ] in
  Alcotest.(check bool) "permuted systems share one node" true (s1 == s2);
  Alcotest.(check int) "same system id" (System.id s1) (System.id s2);
  Alcotest.(check bool) "distinct contents, distinct ids" false
    (System.equal s1 System.top)

let prop_intern_sound =
  Test.make ~name:"equal ids iff structurally equal (expr/constr/system)"
    ~count:300
    Gen.(pair gen_constrs gen_constrs)
    (fun (cs1, cs2) ->
      let s1 = Linear.System.of_list cs1 in
      let s2 = Linear.System.of_list cs2 in
      let structural =
        List.equal Linear.Constr.equal (Linear.System.to_list s1)
          (Linear.System.to_list s2)
      in
      Linear.System.equal s1 s2 = structural
      && (Linear.System.id s1 = Linear.System.id s2) = structural
      && List.for_all
           (fun c1 ->
             List.for_all
               (fun c2 ->
                 Linear.Constr.equal c1 c2 = (Linear.Constr.compare c1 c2 = 0)
                 && Linear.Expr.equal (Linear.Constr.expr c1)
                      (Linear.Constr.expr c2)
                    = (Linear.Expr.compare (Linear.Constr.expr c1)
                         (Linear.Constr.expr c2)
                      = 0))
               cs2)
           cs1)

(* ---- differential: n-way union vs reference fold --------------------- *)

(* the production join (interned-id short-circuit, implies memo) against
   a fold of the oracle join over the bare systems *)
let prop_union_many =
  Test.make ~name:"union_many = reference fold of unions (Reference.join_sys)"
    ~count:200
    Gen.(list_size (int_range 1 6) gen_region)
    (fun rs ->
      let sys (r : Regions.Region.t) = r.Regions.Region.sys in
      let reference =
        List.fold_left
          (fun acc r -> Regions.Region.Reference.join_sys acc (sys r))
          (sys (List.hd rs)) (List.tl rs)
      in
      Linear.System.equal (sys (Regions.Region.union_many rs)) reference)

(* ---- differential: bucketed summary builder vs add_entry fold -------- *)

let prop_builder =
  (* a small region pool + many picks exercises both the display-equal
     merge and the per-slot cap collapse of Summary.add_entry *)
  Test.make ~name:"Summary.add_entries = fold of add_entry" ~count:100
    Gen.(
      pair
        (list_size (return 12) gen_region)
        (list_size (int_range 0 40)
           (triple (int_range 0 3) bool (int_range 0 11))))
    (fun (pool, picks) ->
      let pool = Array.of_list pool in
      let entries =
        List.map
          (fun (k, use, ri) ->
            {
              Ipa.Summary.e_key =
                (if k < 2 then Ipa.Summary.Kglobal k
                 else Ipa.Summary.Kformal (k - 2));
              e_mode = (if use then Regions.Mode.USE else Regions.Mode.DEF);
              e_region = pool.(ri);
              e_count = 1 + (ri mod 3);
            })
          picks
      in
      let fast = Ipa.Summary.add_entries [] entries in
      let reference = List.fold_left Ipa.Summary.add_entry [] entries in
      List.length fast = List.length reference
      && List.for_all2
           (fun (a : Ipa.Summary.entry) (b : Ipa.Summary.entry) ->
             a.Ipa.Summary.e_key = b.Ipa.Summary.e_key
             && Regions.Mode.equal a.Ipa.Summary.e_mode b.Ipa.Summary.e_mode
             && a.Ipa.Summary.e_count = b.Ipa.Summary.e_count
             && same_region a.Ipa.Summary.e_region b.Ipa.Summary.e_region)
           fast reference)

let suite =
  [
    Alcotest.test_case "interned terms are physically shared" `Quick
      test_sharing;
    QCheck_alcotest.to_alcotest prop_intern_sound;
    QCheck_alcotest.to_alcotest prop_union_many;
    QCheck_alcotest.to_alcotest prop_builder;
  ]
