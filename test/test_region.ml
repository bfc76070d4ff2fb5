open Linear
open Regions

let aff_int n = Affine.Affine (Expr.of_int n)
let aff_var v = Affine.Affine (Expr.var v)

let mk_loop ?(step = 1) var lo hi =
  {
    Region.lc_var = var;
    lc_lo = aff_int lo;
    lc_hi = aff_int hi;
    lc_step = Some step;
  }

let fresh_ivar name = Var.fresh ~name Var.Ivar

let check_dim ?(msg = "dim") d (lb, ub, st) =
  let open Region in
  (match d.lb, lb with
  | Bconst x, `C y -> Alcotest.(check int) (msg ^ " lb") y x
  | Bunknown, `U -> ()
  | Bsym _, `S -> ()
  | got, _ ->
    Alcotest.failf "%s lb mismatch: got %s" msg
      (Format.asprintf "%a" pp_bound got));
  (match d.ub, ub with
  | Bconst x, `C y -> Alcotest.(check int) (msg ^ " ub") y x
  | Bunknown, `U -> ()
  | Bsym _, `S -> ()
  | got, _ ->
    Alcotest.failf "%s ub mismatch: got %s" msg
      (Format.asprintf "%a" pp_bound got));
  match d.stride, st with
  | Sconst x, `C y -> Alcotest.(check int) (msg ^ " stride") y x
  | Sunknown, `U -> ()
  | got, _ ->
    Alcotest.failf "%s stride mismatch: got %s" msg
      (Format.asprintf "%a" pp_stride got)

let test_unit_loop () =
  let i = fresh_ivar "i" in
  let r =
    Region.of_subscripts ~extents:[ Some 20 ] ~loops:[ mk_loop i 0 7 ]
      [ aff_var i ]
  in
  check_dim (List.hd (Region.dim_list r)) (`C 0, `C 7, `C 1);
  Alcotest.(check bool) "exact" true (Region.is_exact r);
  Alcotest.(check (option int)) "8 points" (Some 8) (Region.point_count r)

let test_strided_loop () =
  let i = fresh_ivar "i" in
  let r =
    Region.of_subscripts ~extents:[ Some 20 ] ~loops:[ mk_loop ~step:2 i 2 6 ]
      [ aff_var i ]
  in
  check_dim (List.hd (Region.dim_list r)) (`C 2, `C 6, `C 2);
  Alcotest.(check (option int)) "3 points" (Some 3) (Region.point_count r);
  Alcotest.(check bool) "contains 4" true (Region.contains_point r [ 4 ]);
  Alcotest.(check bool) "not contains 3" false (Region.contains_point r [ 3 ])

let test_affine_subscript () =
  (* a(2i + 1), i = 0..4  ->  1:9:2 *)
  let i = fresh_ivar "i" in
  let sub =
    Affine.Affine
      (Expr.add (Expr.monom (Numeric.Rat.of_int 2) i) (Expr.of_int 1))
  in
  let r =
    Region.of_subscripts ~extents:[ Some 20 ] ~loops:[ mk_loop i 0 4 ] [ sub ]
  in
  check_dim (List.hd (Region.dim_list r)) (`C 1, `C 9, `C 2)

let test_negative_step () =
  (* do i = 10, 1, -1; a(i) -> 1:10:1 *)
  let i = fresh_ivar "i" in
  let r =
    Region.of_subscripts ~extents:[ Some 20 ]
      ~loops:[ mk_loop ~step:(-1) i 10 1 ]
      [ aff_var i ]
  in
  check_dim (List.hd (Region.dim_list r)) (`C 1, `C 10, `C 1)

let test_two_dims_disjoint () =
  (* Fig 1: P1 defines (1:100,1:100), P2 uses (101:200,101:200); zero-based
     internally: 0:99 and 100:199 *)
  let i = fresh_ivar "i" and j = fresh_ivar "j" in
  let r1 =
    Region.of_subscripts
      ~extents:[ Some 200; Some 200 ]
      ~loops:[ mk_loop i 0 99; mk_loop j 0 99 ]
      [ aff_var i; aff_var j ]
  in
  let i2 = fresh_ivar "i2" and j2 = fresh_ivar "j2" in
  let r2 =
    Region.of_subscripts
      ~extents:[ Some 200; Some 200 ]
      ~loops:[ mk_loop i2 100 199; mk_loop j2 100 199 ]
      [ aff_var i2; aff_var j2 ]
  in
  Alcotest.(check bool) "disjoint" true (Region.disjoint r1 r2);
  Alcotest.(check bool) "not includes" false (Region.includes r1 r2);
  let u = Region.union_approx r1 r2 in
  Alcotest.(check bool) "union covers r1" true (Region.includes u r1);
  Alcotest.(check bool) "union covers r2" true (Region.includes u r2);
  Alcotest.(check bool) "union not exact" false (Region.is_exact u)

let test_symbolic_upper () =
  (* do i = 1, n; a(i - 1): lb 0, symbolic ub *)
  let i = fresh_ivar "i" in
  let n = Var.fresh ~name:"n" Var.Sym in
  let loop =
    { Region.lc_var = i; lc_lo = aff_int 1; lc_hi = aff_var n; lc_step = Some 1 }
  in
  let sub = Affine.Affine (Expr.sub (Expr.var i) (Expr.of_int 1)) in
  let r = Region.of_subscripts ~extents:[ None ] ~loops:[ loop ] [ sub ] in
  let d = List.hd (Region.dim_list r) in
  check_dim d (`C 0, `S, `C 1);
  (match d.Region.ub with
  | Region.Bsym e ->
    Alcotest.(check string) "ub is n - 1" "n - 1" (Expr.to_string e)
  | _ -> Alcotest.fail "expected symbolic ub")

let test_messy_subscript () =
  let r =
    Region.of_subscripts ~extents:[ Some 10 ] ~loops:[] [ Affine.Messy ]
  in
  check_dim (List.hd (Region.dim_list r)) (`C 0, `C 9, `U);
  Alcotest.(check bool) "not exact" false (Region.is_exact r)

let test_messy_no_extent () =
  let r = Region.of_subscripts ~extents:[ None ] ~loops:[] [ Affine.Messy ] in
  check_dim (List.hd (Region.dim_list r)) (`U, `U, `U)

let test_union_stride_phase () =
  let i = fresh_ivar "i" in
  let r1 =
    Region.of_subscripts ~extents:[ Some 20 ] ~loops:[ mk_loop i 0 7 ]
      [ aff_var i ]
  in
  let j = fresh_ivar "j" in
  let r2 =
    Region.of_subscripts ~extents:[ Some 20 ] ~loops:[ mk_loop ~step:2 j 2 6 ]
      [ aff_var j ]
  in
  let u = Region.union_approx r1 r2 in
  (* phases 0 and 2 with strides 1 and 2: gcd 1 *)
  check_dim (List.hd (Region.dim_list u)) (`C 0, `C 7, `C 1)

let test_point_and_whole () =
  let p = Region.point [ 3; 4 ] in
  Alcotest.(check (option int)) "1 point" (Some 1) (Region.point_count p);
  Alcotest.(check bool) "contains" true (Region.contains_point p [ 3; 4 ]);
  Alcotest.(check bool) "excludes" false (Region.contains_point p [ 4; 3 ]);
  let w = Region.whole ~extents:[ Some 5; Some 5 ] in
  Alcotest.(check (option int)) "25 points" (Some 25) (Region.point_count w);
  Alcotest.(check bool) "whole includes point" true (Region.includes w p);
  let wu = Region.whole ~extents:[ None ] in
  Alcotest.(check (option int)) "unknown count" None (Region.point_count wu);
  Alcotest.(check bool) "unknown not exact" false (Region.is_exact wu)

let test_shift_dim () =
  let i = fresh_ivar "i" in
  let r =
    Region.of_subscripts ~extents:[ Some 20 ] ~loops:[ mk_loop i 0 4 ]
      [ aff_var i ]
  in
  let s = Region.shift_dim 0 3 r in
  check_dim (List.hd (Region.dim_list s)) (`C 3, `C 7, `C 1)

let test_subst_sym () =
  let i = fresh_ivar "i" in
  let n = Var.fresh ~name:"n2" Var.Sym in
  let loop =
    { Region.lc_var = i; lc_lo = aff_int 0; lc_hi = aff_var n; lc_step = Some 1 }
  in
  let r =
    Region.of_subscripts ~extents:[ Some 100 ] ~loops:[ loop ] [ aff_var i ]
  in
  let s = Region.subst_sym [ (n, Expr.of_int 9) ] r in
  check_dim (List.hd (Region.dim_list s)) (`C 0, `C 9, `C 1)

let test_equal_display () =
  let i = fresh_ivar "i" in
  let mk () =
    Region.of_subscripts ~extents:[ Some 20 ] ~loops:[ mk_loop i 0 7 ]
      [ aff_var i ]
  in
  Alcotest.(check bool) "same display" true (Region.equal_display (mk ()) (mk ()));
  let j = fresh_ivar "j" in
  let other =
    Region.of_subscripts ~extents:[ Some 20 ] ~loops:[ mk_loop j 1 7 ]
      [ aff_var j ]
  in
  Alcotest.(check bool) "different display" false
    (Region.equal_display (mk ()) other)

(* Property: triplet projection agrees with brute-force enumeration for
   a(c*i + b) over i = lo..hi step s. *)
let prop_matches_enumeration =
  let gen =
    QCheck2.Gen.(
      let* c = int_range (-3) 3 in
      let* b = int_range (-5) 5 in
      let* lo = int_range (-10) 10 in
      let* len = int_range 0 12 in
      let* s = oneofl [ 1; 2; 3; -1; -2 ] in
      return (c, b, lo, len, s))
  in
  QCheck2.Test.make ~name:"region matches enumerated accesses" ~count:300 gen
    ~print:(fun (c, b, lo, len, s) ->
      Printf.sprintf "sub=%d*i+%d loop=%d..+%d step %d" c b lo len s)
    (fun (c, b, lo, len, s) ->
      let hi = if s > 0 then lo + len else lo - len in
      (* enumerate *)
      let points = ref [] in
      let i = ref lo in
      let continue () = if s > 0 then !i <= hi else !i >= hi in
      while continue () do
        points := ((c * !i) + b) :: !points;
        i := !i + s
      done;
      let points = List.sort_uniq compare !points in
      let iv = fresh_ivar "pi" in
      let sub =
        Affine.Affine
          (Expr.add (Expr.monom (Numeric.Rat.of_int c) iv) (Expr.of_int b))
      in
      let r =
        Region.of_subscripts ~extents:[ None ]
          ~loops:[ mk_loop ~step:s iv lo hi ]
          [ sub ]
      in
      match points with
      | [] -> true (* empty loop: nothing to check *)
      | _ ->
        let lo_pt = List.hd points and hi_pt = List.nth points (List.length points - 1) in
        let d = List.hd (Region.dim_list r) in
        let lb_ok =
          match d.Region.lb with Region.Bconst x -> x = lo_pt | _ -> false
        in
        let ub_ok =
          match d.Region.ub with Region.Bconst x -> x = hi_pt | _ -> false
        in
        let members_ok =
          List.for_all (fun p -> Region.contains_point r [ p ]) points
        in
        lb_ok && ub_ok && members_ok)

(* Property: union over-approximates both operands (convex part). *)
let prop_union_sound =
  let gen =
    QCheck2.Gen.(
      let* lo1 = int_range 0 10 in
      let* len1 = int_range 0 10 in
      let* lo2 = int_range 0 10 in
      let* len2 = int_range 0 10 in
      return (lo1, len1, lo2, len2))
  in
  QCheck2.Test.make ~name:"union_approx covers operands" ~count:200 gen
    ~print:(fun (a, b, c, d) -> Printf.sprintf "[%d,+%d] [%d,+%d]" a b c d)
    (fun (lo1, len1, lo2, len2) ->
      let i = fresh_ivar "u1" and j = fresh_ivar "u2" in
      let r1 =
        Region.of_subscripts ~extents:[ Some 64 ]
          ~loops:[ mk_loop i lo1 (lo1 + len1) ]
          [ aff_var i ]
      in
      let r2 =
        Region.of_subscripts ~extents:[ Some 64 ]
          ~loops:[ mk_loop j lo2 (lo2 + len2) ]
          [ aff_var j ]
      in
      let u = Region.union_approx r1 r2 in
      Region.includes u r1 && Region.includes u r2)

let test_lattice_disjoint () =
  (* even writes vs odd writes: convexly overlapping, lattice-disjoint *)
  let i = fresh_ivar "le" and j = fresh_ivar "lo" in
  let even =
    Region.of_subscripts ~extents:[ Some 64 ]
      ~loops:[ mk_loop i 0 31 ]
      [ Affine.Affine (Expr.monom (Numeric.Rat.of_int 2) i) ]
  in
  let odd =
    Region.of_subscripts ~extents:[ Some 64 ]
      ~loops:[ mk_loop j 0 31 ]
      [ Affine.Affine
          (Expr.add (Expr.monom (Numeric.Rat.of_int 2) j) (Expr.of_int 1)) ]
  in
  Alcotest.(check bool) "even/odd disjoint" true (Region.disjoint even odd);
  Alcotest.(check bool) "not intersecting" false (Region.intersects even odd);
  (* same lattice phase: NOT disjoint *)
  let k = fresh_ivar "lk" in
  let even2 =
    Region.of_subscripts ~extents:[ Some 64 ]
      ~loops:[ mk_loop k 0 31 ]
      [ Affine.Affine (Expr.monom (Numeric.Rat.of_int 2) k) ]
  in
  Alcotest.(check bool) "same phase overlaps" true
    (Region.intersects even even2);
  (* inexact regions must not use lattice reasoning *)
  let w = Region.whole ~extents:[ None ] in
  Alcotest.(check bool) "inexact conservative" true (Region.intersects w even)

let test_lattice_stride_3_4 () =
  (* strides 3 (phase 0) and 4 (phase 1): gcd 1, lattices intersect *)
  let i = fresh_ivar "s3" and j = fresh_ivar "s4" in
  let r3 =
    Region.of_subscripts ~extents:[ Some 64 ] ~loops:[ mk_loop ~step:3 i 0 30 ]
      [ aff_var i ]
  in
  let r4 =
    Region.of_subscripts ~extents:[ Some 64 ] ~loops:[ mk_loop ~step:4 j 1 29 ]
      [ aff_var j ]
  in
  Alcotest.(check bool) "gcd 1 lattices intersect" true
    (Region.intersects r3 r4);
  (* strides 4 (phase 0) and 4 (phase 2): gcd 4, disjoint *)
  let a = fresh_ivar "p0" and b = fresh_ivar "p2" in
  let r0 =
    Region.of_subscripts ~extents:[ Some 64 ] ~loops:[ mk_loop ~step:4 a 0 28 ]
      [ aff_var a ]
  in
  let r2 =
    Region.of_subscripts ~extents:[ Some 64 ] ~loops:[ mk_loop ~step:4 b 2 30 ]
      [ aff_var b ]
  in
  Alcotest.(check bool) "phase-2 apart" true (Region.disjoint r0 r2)

(* ------------------------------------------------------------------ *)
(* The collect phase's shape memo keys a reference by its shape with the
   loop variables written as nesting positions.  That is sound only if
   [of_subscripts] gives the same region for freshly minted loop variables
   of the same nest (outer minted first, as the walk mints them). *)

type aff_d = {
  a_const : int;
  a_loops : (int * int) list;  (* nesting position, coefficient *)
  a_syms : (int * int) list;  (* symbol index, coefficient *)
}

type res_d =
  | R_aff of aff_d
  | R_sparse of int * int option * int option * bool * bool * aff_d option
  | R_messy

type shape_d = {
  d_extents : int option list;
  d_loops : (res_d * res_d * int option) list;  (* outer first *)
  d_subs : res_d list;
}

(* two symbolic program values, interned before any loop variable *)
let shape_syms =
  lazy [| Var.fresh ~name:"n" Var.Sym; Var.fresh ~name:"m" Var.Sym |]

let gen_aff ~depth ~syms =
  QCheck2.Gen.(
    let* a_const = int_range (-5) 12 in
    let* a_loops =
      if depth = 0 then return []
      else
        list_size (int_range 0 2)
          (pair (int_range 0 (depth - 1)) (oneofl [ -2; -1; 1; 2; 3 ]))
    in
    let* a_syms =
      if syms then
        list_size (int_range 0 1) (pair (int_range 0 1) (oneofl [ -1; 1; 2 ]))
      else return []
    in
    return { a_const; a_loops; a_syms })

let gen_sparse ~depth =
  QCheck2.Gen.(
    let* st = int_range 0 3 in
    let* lo = opt (int_range 0 4) in
    let* hi = opt (int_range 5 12) in
    let* mono = bool in
    let* inj = bool in
    let* inner = opt (gen_aff ~depth ~syms:false) in
    return (R_sparse (st, lo, hi, mono, inj, inner)))

(* a loop bound: constant, symbolic, an outer loop's variable, MESSY or
   sparse *)
let gen_bound ~depth =
  QCheck2.Gen.(
    frequency
      [
        ( 3,
          map
            (fun c -> R_aff { a_const = c; a_loops = []; a_syms = [] })
            (int_range (-3) 12) );
        (2, map (fun a -> R_aff a) (gen_aff ~depth:0 ~syms:true));
        (2, map (fun a -> R_aff a) (gen_aff ~depth ~syms:false));
        (1, return R_messy);
        (1, gen_sparse ~depth);
      ])

let gen_sub ~depth =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun a -> R_aff a) (gen_aff ~depth ~syms:true));
        (1, return R_messy);
        (2, gen_sparse ~depth);
      ])

let gen_shape =
  QCheck2.Gen.(
    let* ndims = int_range 1 3 in
    let* d_extents = list_repeat ndims (opt (int_range 1 20)) in
    let* nloops = int_range 0 3 in
    let rec loops k =
      if k = nloops then return []
      else
        let* lo = gen_bound ~depth:k in
        let* hi = gen_bound ~depth:k in
        let* step = oneofl [ Some 1; Some (-1); Some 2; None ] in
        let* rest = loops (k + 1) in
        return ((lo, hi, step) :: rest)
    in
    let* d_loops = loops 0 in
    let* d_subs = list_repeat ndims (gen_sub ~depth:nloops) in
    return { d_extents; d_loops; d_subs })

(* mint the nest's loop variables outer first, then build the region *)
let build_shape d =
  let syms = Lazy.force shape_syms in
  let vars =
    Array.of_list
      (List.mapi (fun k _ -> fresh_ivar (Printf.sprintf "q%d" k)) d.d_loops)
  in
  let expr a =
    List.fold_left
      (fun e (p, c) -> Expr.add e (Expr.monom (Numeric.Rat.of_int c) vars.(p)))
      (List.fold_left
         (fun e (k, c) ->
           Expr.add e (Expr.monom (Numeric.Rat.of_int c) syms.(k)))
         (Expr.of_int a.a_const) a.a_syms)
      a.a_loops
  in
  let result = function
    | R_aff a -> Affine.Affine (expr a)
    | R_messy -> Affine.Messy
    | R_sparse (st, lo, hi, mono, inj, inner) ->
      Affine.Sparse
        {
          Affine.sp_st = st;
          sp_lo = lo;
          sp_hi = hi;
          sp_monotonic = mono;
          sp_injective = inj;
          sp_inner = Option.map expr inner;
        }
  in
  let loops =
    List.rev
      (List.mapi
         (fun k (lo, hi, step) ->
           {
             Region.lc_var = vars.(k);
             lc_lo = result lo;
             lc_hi = result hi;
             lc_step = step;
           })
         d.d_loops)
  in
  let subs = List.map result d.d_subs in
  match Region.of_subscripts ~extents:d.d_extents ~loops subs with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let print_shape d =
  match build_shape d with
  | Error e -> "raises " ^ e
  | Ok r ->
    Format.asprintf "%d loops, extents [%s]: %a" (List.length d.d_loops)
      (String.concat ";"
         (List.map
            (function Some e -> string_of_int e | None -> "?")
            d.d_extents))
      Region.pp r

let same_region a b =
  System.equal a.Region.sys b.Region.sys
  && Region.equal_display a b
  && Region.is_exact a = Region.is_exact b
  && Region.is_clamped a = Region.is_clamped b
  && Region.assumed_flags a = Region.assumed_flags b

let prop_shape_rebuild =
  QCheck2.Test.make ~name:"shape rebuilt with fresh loop vars is equal"
    ~count:1000 ~print:print_shape gen_shape (fun d ->
      match build_shape d, build_shape d with
      | Ok a, Ok b -> same_region a b
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)

(* Accesses of one PU that differ in one part of their shape must get
   different regions from the memo: a key without that part would hand the
   second access the first one's region. *)
let shape_src =
  "      subroutine shp(n, m, k)\n\
  \      integer n, m, k\n\
  \      real a(1:10), b(1:20), c(1:30)\n\
  \      integer idx(1:10)\n\
  \      integer i\n\
   !$uhc index idx bounded(1,10)\n\
  \      do i = 1, n\n\
  \        a(i) = 0.0\n\
  \      end do\n\
  \      do i = 1, n, 2\n\
  \        a(i) = 0.0\n\
  \      end do\n\
  \      do i = 1, n, k\n\
  \        a(i) = 0.0\n\
  \      end do\n\
  \      a(k*k) = 1.0\n\
  \      b(k*k) = 1.0\n\
  \      do i = 1, 10\n\
  \        c(idx(i)) = 1.0\n\
  \        c(idx(i)+1) = 1.0\n\
  \      end do\n\
  \      a(n) = 1.0\n\
  \      a(m) = 1.0\n\
  \      do i = 1, n\n\
  \        a(i) = 2.0\n\
  \      end do\n\
  \      end\n"

let test_shape_key_parts () =
  let m =
    Whirl.Lower.lower (Lang.Frontend.load ~files:[ ("shp.f", shape_src) ])
  in
  Ipa.Collect.intern_module_syms m;
  let pu = Option.get (Whirl.Ir.find_pu m "shp") in
  let shapes = Ipa.Collect.shapes () in
  let info = Ipa.Collect.run_pu shapes m pu in
  let def line =
    match
      List.filter
        (fun (a : Ipa.Collect.access) ->
          a.Ipa.Collect.ac_mode = Mode.DEF
          && Lang.Loc.line a.Ipa.Collect.ac_loc = line)
        info.Ipa.Collect.p_accesses
    with
    | [ a ] -> a.Ipa.Collect.ac_region
    | l -> Alcotest.failf "line %d: %d DEF accesses" line (List.length l)
  in
  let differ what l1 l2 =
    if same_region (def l1) (def l2) then
      Alcotest.failf "%s: lines %d and %d got the same region" what l1 l2
  in
  differ "step 1 vs 2" 8 11;
  differ "step 2 vs unknown" 11 14;
  differ "step 1 vs unknown" 8 14;
  differ "extent" 16 17;
  differ "sparse bounds" 19 20;
  differ "symbol" 22 23;
  (* the control: one shape in two loops is one region, built once *)
  Alcotest.(check bool) "same shape shares one region" true (def 8 == def 25);
  Alcotest.(check bool) "memo saw repeats" true
    (Ipa.Collect.shapes_distinct shapes < Ipa.Collect.shapes_requested shapes)

let suite =
  [
    Alcotest.test_case "lattice disjointness" `Quick test_lattice_disjoint;
    Alcotest.test_case "lattice strides 3/4" `Quick test_lattice_stride_3_4;
    Alcotest.test_case "unit-stride loop" `Quick test_unit_loop;
    Alcotest.test_case "strided loop" `Quick test_strided_loop;
    Alcotest.test_case "affine subscript 2i+1" `Quick test_affine_subscript;
    Alcotest.test_case "negative step" `Quick test_negative_step;
    Alcotest.test_case "Fig1 disjoint 2-D regions" `Quick test_two_dims_disjoint;
    Alcotest.test_case "symbolic upper bound" `Quick test_symbolic_upper;
    Alcotest.test_case "messy subscript clamps" `Quick test_messy_subscript;
    Alcotest.test_case "messy without extent" `Quick test_messy_no_extent;
    Alcotest.test_case "union stride/phase" `Quick test_union_stride_phase;
    Alcotest.test_case "point and whole" `Quick test_point_and_whole;
    Alcotest.test_case "shift_dim" `Quick test_shift_dim;
    Alcotest.test_case "subst_sym" `Quick test_subst_sym;
    Alcotest.test_case "equal_display" `Quick test_equal_display;
    QCheck_alcotest.to_alcotest prop_matches_enumeration;
    QCheck_alcotest.to_alcotest prop_union_sound;
    QCheck_alcotest.to_alcotest prop_shape_rebuild;
    Alcotest.test_case "shape memo keys every part" `Quick test_shape_key_parts;
  ]
