(* WOPT: constant propagation and DCE over WHIRL. *)

let lower files = Whirl.Lower.lower (Lang.Frontend.load ~files)

let rows_of_module m =
  (Engine.analyze m).Ipa.Analyze.r_rows

let find_row rows array mode =
  List.find_opt
    (fun (r : Rgnfile.Row.t) ->
      r.Rgnfile.Row.array = array && r.Rgnfile.Row.mode = mode)
    rows

let test_bounds_sharpened () =
  let src =
    ( "t.f",
      {|      program t
      integer a(1:64)
      integer i, n
      n = 32
      do i = 1, n
        a(i) = i
      end do
      end
|} )
  in
  let m = lower [ src ] in
  (* without wopt: symbolic upper bound *)
  (match find_row (rows_of_module m) "a" "DEF" with
  | Some r -> Alcotest.(check string) "symbolic before" "n" r.Rgnfile.Row.ub
  | None -> Alcotest.fail "no DEF row");
  (* with wopt: exact *)
  let m', stats = Wopt.Const_prop.run (lower [ src ]) in
  Alcotest.(check bool) "folded something" true
    (stats.Wopt.Const_prop.folded_loads >= 1);
  match find_row (rows_of_module m') "a" "DEF" with
  | Some r -> Alcotest.(check string) "constant after" "32" r.Rgnfile.Row.ub
  | None -> Alcotest.fail "no DEF row after wopt"

let test_branch_folding () =
  let src =
    ( "t.f",
      {|      program t
      integer x, c
      c = 1
      if (c .gt. 0) then
        x = 10
      else
        x = 20
      end if
      print *, x
      end
|} )
  in
  let m, stats = Wopt.Const_prop.run (lower [ src ]) in
  Alcotest.(check int) "one branch folded" 1 stats.Wopt.Const_prop.folded_branches;
  let o = Interp.run m in
  Alcotest.(check string) "semantics preserved" "10\n" o.Interp.out_text

let test_call_kills_globals () =
  let src =
    ( "t.f",
      {|      program t
      integer a(1:64)
      integer g
      integer i
      common /c/ g
      g = 8
      call touch
      do i = 1, g
        a(i) = i
      end do
      end

      subroutine touch
      integer g
      common /c/ g
      g = 16
      end
|} )
  in
  let m, _ = Wopt.Const_prop.run (lower [ src ]) in
  match find_row (rows_of_module m) "a" "DEF" with
  | Some r ->
    Alcotest.(check string) "g stays symbolic across the call" "g"
      r.Rgnfile.Row.ub
  | None -> Alcotest.fail "no DEF row"

let test_loop_kills_modified () =
  let src =
    ( "t.f",
      {|      program t
      integer a(1:64)
      integer i, k
      k = 1
      do i = 1, 10
        k = k + 3
        a(k) = i
      end do
      end
|} )
  in
  let m, _ = Wopt.Const_prop.run (lower [ src ]) in
  match find_row (rows_of_module m) "a" "DEF" with
  | Some r ->
    Alcotest.(check string) "k not treated as 1" "k" r.Rgnfile.Row.lb
  | None -> Alcotest.fail "no DEF row"

let test_dce_dead_store_and_unreachable () =
  let src =
    ( "t.f",
      {|      subroutine s(x)
      integer x
      integer dead
      dead = 42
      x = 1
      return
      x = 2
      end
|} )
  in
  let m = lower [ src ] in
  let m', stats = Wopt.Dce.run m in
  Alcotest.(check int) "dead store removed" 1 stats.Wopt.Dce.removed_stores;
  Alcotest.(check int) "unreachable removed" 1 stats.Wopt.Dce.removed_stmts;
  let pu = Option.get (Whirl.Ir.find_pu m' "s") in
  let stids =
    Whirl.Wn.count (fun w -> w.Whirl.Wn.operator = Whirl.Wn.OPR_STID)
      (Whirl.Ir.body pu)
  in
  Alcotest.(check int) "only the live store remains" 1 stids

let test_dce_keeps_observable () =
  let src =
    ( "t.f",
      {|      program t
      integer x
      x = 5
      print *, x
      end
|} )
  in
  let m, stats = Wopt.Dce.run (lower [ src ]) in
  Alcotest.(check int) "nothing removed" 0 stats.Wopt.Dce.removed_stores;
  let o = Interp.run m in
  Alcotest.(check string) "still prints" "5\n" o.Interp.out_text

let semantics_preserved src =
  let before = Interp.run (lower [ src ]) in
  let m1, _ = Wopt.Const_prop.run (lower [ src ]) in
  let m2, _ = Wopt.Dce.run m1 in
  let after = Interp.run m2 in
  Alcotest.(check string) "same output" before.Interp.out_text
    after.Interp.out_text

let test_call_in_rhs_kills_globals () =
  (* regression: a function call inside an assignment's RHS clobbers
     globals, so earlier constants must not survive it *)
  let src =
    ( "t.f",
      {|      program t
      integer a(1:64)
      integer g, x
      common /c/ g
      g = 8
      x = bump() + 1
      call use(a, g)
      end

      integer function bump()
      integer g
      common /c/ g
      g = 16
      bump = 1
      end

      subroutine use(b, n)
      integer b(1:64)
      integer n, i
      do i = 1, n
        b(i) = i
      end do
      end
|} )
  in
  let m, _ = Wopt.Const_prop.run (lower [ src ]) in
  (* the DEF effect of `use` propagated into t must keep g symbolic: with
     the stale fold it would be the constant region 0:7 *)
  let r = Engine.analyze m in
  let table =
    List.find (fun t -> t.Ipa.Analyze.t_proc = "t") r.Ipa.Analyze.r_tables
  in
  let via_def =
    List.find
      (fun (a : Ipa.Collect.access) ->
        a.Ipa.Collect.ac_via <> None
        && Regions.Mode.equal a.Ipa.Collect.ac_mode Regions.Mode.DEF)
      table.Ipa.Analyze.t_accesses
  in
  (match Regions.Region.dim_list via_def.Ipa.Collect.ac_region with
  | [ d ] ->
    Alcotest.(check bool) "ub stays symbolic (g clobbered by bump())" true
      (match d.Regions.Region.ub with
      | Regions.Region.Bsym _ -> true
      | _ -> false)
  | _ -> Alcotest.fail "expected a 1-D region");
  (* and execution agrees before/after wopt *)
  semantics_preserved src

let test_semantics_matrix () = semantics_preserved Corpus.Small.matrix_c
let test_semantics_fig1 () = semantics_preserved Corpus.Small.fig1_f

let test_semantics_mixed () =
  semantics_preserved
    ( "t.f",
      {|      program t
      integer a(1:16)
      integer i, n, s
      n = 4
      s = 0
      do i = 1, n * 2
        if (mod(i, 2) .eq. 0) then
          a(i) = i * 3
        else
          a(i) = i
        end if
      end do
      do i = 1, 8
        s = s + a(i)
      end do
      print *, s, n
      end
|} )

let suite =
  [
    Alcotest.test_case "bounds sharpened" `Quick test_bounds_sharpened;
    Alcotest.test_case "branch folding" `Quick test_branch_folding;
    Alcotest.test_case "call kills globals" `Quick test_call_kills_globals;
    Alcotest.test_case "loop kills modified scalars" `Quick test_loop_kills_modified;
    Alcotest.test_case "DCE: dead store + unreachable" `Quick
      test_dce_dead_store_and_unreachable;
    Alcotest.test_case "DCE keeps observable" `Quick test_dce_keeps_observable;
    Alcotest.test_case "call in rhs kills globals" `Quick
      test_call_in_rhs_kills_globals;
    Alcotest.test_case "semantics preserved (matrix.c)" `Quick test_semantics_matrix;
    Alcotest.test_case "semantics preserved (fig1.f)" `Quick test_semantics_fig1;
    Alcotest.test_case "semantics preserved (mixed)" `Quick test_semantics_mixed;
  ]
