(* Dependence tests and the loop-nest transformations built on them. *)

let analyze files = Engine.analyze_sources files

let find_loops pu =
  let loops = ref [] in
  Whirl.Wn.preorder
    (fun w ->
      if w.Whirl.Wn.operator = Whirl.Wn.OPR_DO_LOOP then loops := w :: !loops)
    (Whirl.Ir.body pu);
  List.rev !loops

let top_loops pu =
  (* loops that are direct statements of the function body block *)
  let body = Whirl.Wn.kid (Whirl.Ir.body pu) 0 in
  Array.to_list body.Whirl.Wn.kids
  |> List.filter (fun w -> w.Whirl.Wn.operator = Whirl.Wn.OPR_DO_LOOP)

let setup src proc =
  let result = analyze [ ("t.f", src) ] in
  let m = result.Ipa.Analyze.r_module in
  let pu = Option.get (Whirl.Ir.find_pu m proc) in
  (result, m, pu)

(* ------------------------------------------------------------------ *)
(* fusion legality *)

let legal_fusion_src =
  {|      program t
      integer a(1:64), b(1:64)
      integer i
      do i = 1, 64
        a(i) = i
      end do
      do i = 1, 64
        b(i) = a(i - 1 + 1)
      end do
      end
|}

let illegal_fusion_src =
  {|      program t
      integer a(1:64), b(1:64)
      integer i
      do i = 1, 63
        a(i) = i
      end do
      do i = 1, 63
        b(i) = a(i + 1)
      end do
      end
|}

let test_fusion_legal () =
  let result, m, pu = setup legal_fusion_src "t" in
  match top_loops pu with
  | [ l1; l2 ] ->
    Alcotest.(check bool) "headers compatible" true
      (Ipa.Lno.headers_compatible l1 l2);
    Alcotest.(check (list string)) "no preventing deps" []
      (Ipa.Deps.fusion_preventing m result.Ipa.Analyze.r_summaries pu
         ~first:l1 ~second:l2)
  | _ -> Alcotest.fail "expected two top-level loops"

let test_fusion_illegal () =
  let result, m, pu = setup illegal_fusion_src "t" in
  match top_loops pu with
  | [ l1; l2 ] ->
    Alcotest.(check (list string)) "a prevents fusion" [ "a" ]
      (Ipa.Deps.fusion_preventing m result.Ipa.Analyze.r_summaries pu
         ~first:l1 ~second:l2)
  | _ -> Alcotest.fail "expected two top-level loops"

let test_fuse_pu_transforms () =
  let result, m, pu = setup legal_fusion_src "t" in
  let pu', n = Ipa.Lno.fuse_pu m result.Ipa.Analyze.r_summaries pu in
  Alcotest.(check int) "one fusion" 1 n;
  Alcotest.(check int) "one loop remains" 1 (List.length (find_loops pu'));
  (* and the fused program computes the same thing *)
  let m' = { m with Whirl.Ir.m_pus = [ pu' ] } in
  let before = Interp.run m and after = Interp.run m' in
  Alcotest.(check string) "same output" before.Interp.out_text
    after.Interp.out_text

let test_fuse_pu_refuses_illegal () =
  let result, m, pu = setup illegal_fusion_src "t" in
  let _, n = Ipa.Lno.fuse_pu m result.Ipa.Analyze.r_summaries pu in
  Alcotest.(check int) "no fusion" 0 n

let test_fuse_incompatible_headers () =
  let src =
    {|      program t
      integer a(1:64)
      integer i
      do i = 1, 32
        a(i) = i
      end do
      do i = 1, 64
        a(i) = a(i) + 1
      end do
      end
|}
  in
  let result, m, pu = setup src "t" in
  let _, n = Ipa.Lno.fuse_pu m result.Ipa.Analyze.r_summaries pu in
  Alcotest.(check int) "different bounds: no fusion" 0 n

(* ------------------------------------------------------------------ *)
(* loop dependences *)

let test_loop_dependences () =
  let src =
    {|      program t
      integer a(1:64)
      integer i
      do i = 2, 63
        a(i) = a(i - 1) + a(i + 1)
      end do
      end
|}
  in
  let result, m, pu = setup src "t" in
  match find_loops pu with
  | [ loop ] ->
    let deps =
      Ipa.Deps.loop_dependences m result.Ipa.Analyze.r_summaries pu loop
    in
    let carried_kinds =
      List.filter_map
        (fun d ->
          if d.Ipa.Deps.dep_carried then Some d.Ipa.Deps.dep_kind else None)
        deps
      |> List.sort_uniq compare
    in
    (* a(i-1) read after write: flow; a(i+1) read before write: anti *)
    Alcotest.(check bool) "flow carried" true
      (List.mem Ipa.Deps.Flow carried_kinds);
    Alcotest.(check bool) "anti carried" true
      (List.mem Ipa.Deps.Anti carried_kinds)
  | _ -> Alcotest.fail "expected one loop"

let test_no_dependence_parallel_loop () =
  let src =
    {|      program t
      integer a(1:64), b(1:64)
      integer i
      do i = 1, 64
        a(i) = b(i)
      end do
      end
|}
  in
  let result, m, pu = setup src "t" in
  match find_loops pu with
  | [ loop ] ->
    let deps =
      Ipa.Deps.loop_dependences m result.Ipa.Analyze.r_summaries pu loop
    in
    Alcotest.(check bool) "no carried dependence" true
      (List.for_all (fun d -> not d.Ipa.Deps.dep_carried) deps)
  | _ -> Alcotest.fail "expected one loop"

(* ------------------------------------------------------------------ *)
(* interchange *)

let interchange_illegal_src =
  {|      program t
      integer a(1:64, 1:64)
      integer i, j
      do i = 2, 63
        do j = 2, 63
          a(i, j) = a(i - 1, j + 1)
        end do
      end do
      end
|}

let interchange_legal_src =
  {|      program t
      integer a(1:64, 1:64)
      integer i, j
      do i = 2, 63
        do j = 2, 63
          a(i, j) = a(i - 1, j)
        end do
      end do
      end
|}

let test_interchange_illegal () =
  let result, m, pu = setup interchange_illegal_src "t" in
  match top_loops pu with
  | [ outer ] ->
    let inner = Option.get (Ipa.Lno.is_perfect_nest outer) in
    Alcotest.(check (list string)) "(<,>) dependence found" [ "a" ]
      (Ipa.Deps.interchange_preventing m result.Ipa.Analyze.r_summaries pu
         ~outer ~inner)
  | _ -> Alcotest.fail "expected one top loop"

let test_interchange_legal_and_transform () =
  let result, m, pu = setup interchange_legal_src "t" in
  match top_loops pu with
  | [ outer ] ->
    let inner = Option.get (Ipa.Lno.is_perfect_nest outer) in
    Alcotest.(check (list string)) "legal" []
      (Ipa.Deps.interchange_preventing m result.Ipa.Analyze.r_summaries pu
         ~outer ~inner);
    let pu', n =
      Ipa.Lno.interchange_pu m result.Ipa.Analyze.r_summaries pu
        ~want:(fun ~outer_ivar ~inner_ivar ->
          outer_ivar = "i" && inner_ivar = "j")
    in
    Alcotest.(check int) "one interchange" 1 n;
    (* the outer loop's ivar is now j *)
    (match top_loops pu' with
    | [ new_outer ] ->
      let name =
        Whirl.Ir.st_name m pu' (Whirl.Wn.kid new_outer 0).Whirl.Wn.st_idx
      in
      Alcotest.(check string) "j outermost" "j" name
    | _ -> Alcotest.fail "expected one top loop after interchange");
    (* semantics preserved *)
    let m' = { m with Whirl.Ir.m_pus = [ pu' ] } in
    let before = Interp.run m and after = Interp.run m' in
    Alcotest.(check string) "same output" before.Interp.out_text
      after.Interp.out_text
  | _ -> Alcotest.fail "expected one top loop"

let test_interchange_pu_respects_legality () =
  let result, m, pu = setup interchange_illegal_src "t" in
  let _, n =
    Ipa.Lno.interchange_pu m result.Ipa.Analyze.r_summaries pu
      ~want:(fun ~outer_ivar:_ ~inner_ivar:_ -> true)
  in
  Alcotest.(check int) "illegal nest untouched" 0 n

let test_negative_step_dependences_sound () =
  (* regression: a downward loop must not get an empty iteration space in
     the dependence tests (lo/hi inversion) *)
  let src =
    {|      program t
      integer a(1:64)
      integer i
      do i = 63, 2, -1
        a(i) = a(i - 1) + 1
      end do
      end
|}
  in
  let result, m, pu = setup src "t" in
  (match find_loops pu with
  | [ loop ] ->
    let v = Ipa.Parallel.loop_parallel m result.Ipa.Analyze.r_summaries pu loop in
    Alcotest.(check bool) "downward loop with carried dep NOT parallel" false
      v.Ipa.Parallel.lv_parallel
  | _ -> Alcotest.fail "expected one loop");
  (* and two downward loops with a backward dependence must not fuse *)
  let src2 =
    {|      program t
      integer a(1:64), b(1:64)
      integer i
      do i = 63, 1, -1
        a(i) = i
      end do
      do i = 63, 1, -1
        b(i) = a(i + 1)
      end do
      end
|}
  in
  let result, m, pu = setup src2 "t" in
  let _, n = Ipa.Lno.fuse_pu m result.Ipa.Analyze.r_summaries pu in
  Alcotest.(check int) "illegal downward fusion refused" 0 n;
  (* a genuinely independent downward loop still parallelizes *)
  let src3 =
    {|      program t
      integer a(1:64)
      integer i
      do i = 64, 1, -1
        a(i) = i
      end do
      end
|}
  in
  let result, m, pu = setup src3 "t" in
  match find_loops pu with
  | [ loop ] ->
    let v = Ipa.Parallel.loop_parallel m result.Ipa.Analyze.r_summaries pu loop in
    Alcotest.(check bool) "independent downward loop parallel" true
      v.Ipa.Parallel.lv_parallel
  | _ -> Alcotest.fail "expected one loop"

let locality_bad_src =
  {|      program loc
      double precision g(1:64, 1:64)
      integer i, j
      do j = 1, 64
        do i = 1, 64
          g(j, i) = i + j
        end do
      end do
      print *, g(1, 1)
      end
|}

let test_locality_suggestion () =
  let result, m, pu = setup locality_bad_src "loc" in
  (match Ipa.Lno.locality_suggestions m result.Ipa.Analyze.r_summaries pu with
  | [ s ] ->
    Alcotest.(check string) "outer" "j" s.Ipa.Lno.loc_outer;
    Alcotest.(check string) "inner" "i" s.Ipa.Lno.loc_inner;
    Alcotest.(check bool) "legal" true s.Ipa.Lno.loc_legal;
    Alcotest.(check int) "one bad ref" 1 s.Ipa.Lno.loc_bad_refs
  | l -> Alcotest.failf "expected one suggestion, got %d" (List.length l));
  (* the well-ordered version raises no suggestion *)
  let good =
    {|      program loc
      double precision g(1:64, 1:64)
      integer i, j
      do i = 1, 64
        do j = 1, 64
          g(j, i) = i + j
        end do
      end do
      print *, g(1, 1)
      end
|}
  in
  let result, m, pu = setup good "loc" in
  Alcotest.(check int) "no suggestion for good order" 0
    (List.length (Ipa.Lno.locality_suggestions m result.Ipa.Analyze.r_summaries pu))

let test_locality_interchange_reduces_misses () =
  let misses pu_transform =
    let prog = Lang.Frontend.load ~files:[ ("loc.f", locality_bad_src) ] in
    let m = Whirl.Lower.lower prog in
    let m =
      match pu_transform with
      | None -> m
      | Some f -> { m with Whirl.Ir.m_pus = List.map f m.Whirl.Ir.m_pus }
    in
    let cache = Cache.create (Cache.two_way ~line_bytes:64 ~lines:64) in
    let _ =
      Interp.run
        ~observer:(fun ev ->
          Cache.access cache ~write:ev.Interp.ev_write ~addr:ev.Interp.ev_addr
            ~bytes:ev.Interp.ev_bytes)
        m
    in
    Cache.misses (Cache.stats cache)
  in
  let result = Engine.analyze_sources [ ("loc.f", locality_bad_src) ] in
  let m = result.Ipa.Analyze.r_module in
  let before = misses None in
  let after =
    misses
      (Some
         (fun pu ->
           fst
             (Ipa.Lno.interchange_pu m result.Ipa.Analyze.r_summaries pu
                ~want:(fun ~outer_ivar:_ ~inner_ivar:_ -> true))))
  in
  Alcotest.(check bool)
    (Printf.sprintf "interchange reduces misses (%d -> %d)" before after)
    true
    (after * 4 < before)

(* fusing the Case 1 pattern automatically *)
let test_case1_auto_fusion () =
  let src =
    {|      program t
      double precision xcr(5), xcrref(5), xcrdif(5)
      integer m
      do m = 1, 5
        xcrdif(m) = abs((xcr(m) - xcrref(m)) / xcrref(m))
      end do
      do m = 1, 5
        xcrdif(m) = xcrdif(m) + xcr(m)
      end do
      print *, xcrdif(1)
      end
|}
  in
  let result, m, pu = setup src "t" in
  let pu', n = Ipa.Lno.fuse_pu m result.Ipa.Analyze.r_summaries pu in
  Alcotest.(check int) "the two XCR loops fuse" 1 n;
  Alcotest.(check int) "single loop left" 1 (List.length (find_loops pu'))

let suite =
  [
    Alcotest.test_case "fusion legal" `Quick test_fusion_legal;
    Alcotest.test_case "fusion illegal (a(i+1))" `Quick test_fusion_illegal;
    Alcotest.test_case "fuse_pu transforms + preserves" `Quick test_fuse_pu_transforms;
    Alcotest.test_case "fuse_pu refuses illegal" `Quick test_fuse_pu_refuses_illegal;
    Alcotest.test_case "incompatible headers" `Quick test_fuse_incompatible_headers;
    Alcotest.test_case "loop dependences (flow+anti)" `Quick test_loop_dependences;
    Alcotest.test_case "parallel loop: none carried" `Quick test_no_dependence_parallel_loop;
    Alcotest.test_case "interchange illegal (<,>)" `Quick test_interchange_illegal;
    Alcotest.test_case "interchange legal + transform" `Quick test_interchange_legal_and_transform;
    Alcotest.test_case "interchange respects legality" `Quick test_interchange_pu_respects_legality;
    Alcotest.test_case "Case 1 auto-fusion" `Quick test_case1_auto_fusion;
    Alcotest.test_case "negative-step dependences sound" `Quick
      test_negative_step_dependences_sound;
    Alcotest.test_case "locality suggestion" `Quick test_locality_suggestion;
    Alcotest.test_case "interchange reduces misses" `Quick
      test_locality_interchange_reduces_misses;
  ]
