(* Full-pipeline integration tests: source text -> frontend -> WHIRL ->
   IPL/IPA -> rows, on the paper's example programs. *)

open Ipa

let analyze files = Engine.analyze_sources files

let rows_of result ~scope ~array ~mode =
  List.filter
    (fun (r : Rgnfile.Row.t) ->
      r.Rgnfile.Row.scope = scope
      && r.Rgnfile.Row.array = array
      && r.Rgnfile.Row.mode = mode)
    result.Analyze.r_rows

let triplet (r : Rgnfile.Row.t) =
  (r.Rgnfile.Row.lb, r.Rgnfile.Row.ub, r.Rgnfile.Row.stride)

(* ------------------------------------------------------------------ *)
(* matrix.c (Fig 9 / Fig 10) *)

let matrix_result = lazy (analyze [ Corpus.Small.matrix_c ])

let test_fig9_def_rows () =
  let result = Lazy.force matrix_result in
  let defs = rows_of result ~scope:"@" ~array:"aarr" ~mode:"DEF" in
  Alcotest.(check int) "two DEF rows" 2 (List.length defs);
  let ts = List.map triplet defs |> List.sort compare in
  Alcotest.(check (list (triple string string string)))
    "DEF regions [0:7:1] and [1:8:1]"
    [ ("0", "7", "1"); ("1", "8", "1") ]
    ts;
  List.iter
    (fun (r : Rgnfile.Row.t) ->
      Alcotest.(check int) "refs 2" 2 r.Rgnfile.Row.references;
      Alcotest.(check int) "density 2" 2 r.Rgnfile.Row.acc_density)
    defs

let test_fig9_use_rows () =
  let result = Lazy.force matrix_result in
  let uses = rows_of result ~scope:"@" ~array:"aarr" ~mode:"USE" in
  Alcotest.(check int) "three USE rows" 3 (List.length uses);
  let ts = List.map triplet uses |> List.sort compare in
  Alcotest.(check (list (triple string string string)))
    "USE regions"
    [ ("0", "7", "1"); ("0", "7", "1"); ("2", "6", "2") ]
    ts;
  List.iter
    (fun (r : Rgnfile.Row.t) ->
      Alcotest.(check int) "refs 3" 3 r.Rgnfile.Row.references;
      Alcotest.(check int) "density 3" 3 r.Rgnfile.Row.acc_density)
    uses

let test_fig9_attributes () =
  let result = Lazy.force matrix_result in
  match rows_of result ~scope:"@" ~array:"aarr" ~mode:"DEF" with
  | r :: _ ->
    Alcotest.(check int) "element size 4" 4 r.Rgnfile.Row.element_size;
    Alcotest.(check string) "int" "int" r.Rgnfile.Row.data_type;
    Alcotest.(check string) "dim 20" "20" r.Rgnfile.Row.dim_size;
    Alcotest.(check int) "tot 20" 20 r.Rgnfile.Row.tot_size;
    Alcotest.(check int) "80 bytes" 80 r.Rgnfile.Row.size_bytes;
    Alcotest.(check string) "object file" "matrix.o" r.Rgnfile.Row.file;
    Alcotest.(check int) "1-D" 1 r.Rgnfile.Row.dimensions
  | [] -> Alcotest.fail "no DEF rows"

let test_fig9_mem_loc_shared () =
  let result = Lazy.force matrix_result in
  let all =
    rows_of result ~scope:"@" ~array:"aarr" ~mode:"DEF"
    @ rows_of result ~scope:"@" ~array:"aarr" ~mode:"USE"
  in
  match all with
  | r :: rest ->
    List.iter
      (fun (r' : Rgnfile.Row.t) ->
        Alcotest.(check string) "same Mem_Loc" r.Rgnfile.Row.mem_loc
          r'.Rgnfile.Row.mem_loc)
      rest
  | [] -> Alcotest.fail "no rows"

(* ------------------------------------------------------------------ *)
(* fig1.f: interprocedural regions and independence *)

let fig1_result = lazy (analyze [ Corpus.Small.fig1_f ])

let test_fig1_rows () =
  let result = Lazy.force fig1_result in
  (* p1 writes a(1:100,1:100): displayed row-major as 100|100 at lb 1|1 *)
  let defs = rows_of result ~scope:"p1" ~array:"a" ~mode:"DEF" in
  Alcotest.(check int) "one DEF row in p1" 1 (List.length defs);
  (match defs with
  | [ r ] ->
    Alcotest.(check string) "lb" "1|1" r.Rgnfile.Row.lb;
    Alcotest.(check string) "ub" "100|100" r.Rgnfile.Row.ub;
    Alcotest.(check string) "stride" "1|1" r.Rgnfile.Row.stride;
    Alcotest.(check string) "dims" "200|200" r.Rgnfile.Row.dim_size;
    Alcotest.(check int) "bytes" 160000 r.Rgnfile.Row.size_bytes
  | _ -> Alcotest.fail "unexpected");
  let uses = rows_of result ~scope:"p2" ~array:"a" ~mode:"USE" in
  (match uses with
  | [ r ] ->
    Alcotest.(check string) "lb" "101|101" r.Rgnfile.Row.lb;
    Alcotest.(check string) "ub" "200|200" r.Rgnfile.Row.ub
  | _ -> Alcotest.fail "expected one USE row in p2");
  (* FORMAL rows cover the whole declared array *)
  let formals = rows_of result ~scope:"p1" ~array:"a" ~mode:"FORMAL" in
  match formals with
  | [ r ] ->
    Alcotest.(check string) "formal lb" "1|1" r.Rgnfile.Row.lb;
    Alcotest.(check string) "formal ub" "200|200" r.Rgnfile.Row.ub
  | _ -> Alcotest.fail "expected one FORMAL row in p1"

let test_fig1_passed () =
  let result = Lazy.force fig1_result in
  let passed = rows_of result ~scope:"add" ~array:"a" ~mode:"PASSED" in
  Alcotest.(check int) "two PASSED rows in add" 2 (List.length passed);
  List.iter
    (fun (r : Rgnfile.Row.t) ->
      Alcotest.(check int) "PASSED refs 2" 2 r.Rgnfile.Row.references)
    passed

let test_fig1_callgraph () =
  let result = Lazy.force fig1_result in
  let cg = result.Analyze.r_callgraph in
  Alcotest.(check int) "4 nodes" 4 (Callgraph.node_count cg);
  Alcotest.(check int) "3 edges" 3 (Callgraph.edge_count cg);
  Alcotest.(check (list string)) "roots" [ "fig1" ] (Callgraph.roots cg);
  Alcotest.(check (list string))
    "callees of add" [ "p1"; "p2" ] (Callgraph.callees cg "add");
  Alcotest.(check bool) "not recursive" false (Callgraph.is_recursive cg "add")

(* The call graph as [Callgraph.build] defined it before its lists were
   deduplicated through a seen-set: [List.mem] then append, Tarjan over
   those lists, levels from the leaves.  The oracle for the graph's
   adjacency and schedule. *)
let callgraph_oracle cg =
  let order = Callgraph.procs cg in
  let callee_map = Hashtbl.create 16 and caller_map = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace callee_map n [];
      Hashtbl.replace caller_map n [])
    order;
  let push tbl key v =
    let cur = try Hashtbl.find tbl key with Not_found -> [] in
    if not (List.mem v cur) then Hashtbl.replace tbl key (cur @ [ v ])
  in
  List.iter
    (fun (cs : Callgraph.callsite) ->
      push callee_map cs.Callgraph.cs_caller cs.Callgraph.cs_callee;
      push caller_map cs.Callgraph.cs_callee cs.Callgraph.cs_caller)
    (Callgraph.callsites cg);
  let find tbl n = try Hashtbl.find tbl n with Not_found -> [] in
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and comps = ref [] in
  let rec visit v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          visit w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (find callee_map v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      comps := pop [] :: !comps
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then visit v) order;
  let sccs = Array.of_list (List.rev !comps) in
  let scc_of = Hashtbl.create 16 in
  Array.iteri (fun i scc -> List.iter (fun p -> Hashtbl.replace scc_of p i) scc) sccs;
  let levels = Array.make (Array.length sccs) 0 in
  Array.iteri
    (fun i scc ->
      List.iter
        (fun p ->
          List.iter
            (fun c ->
              match Hashtbl.find_opt scc_of c with
              | Some j when j <> i -> levels.(i) <- max levels.(i) (levels.(j) + 1)
              | _ -> ())
            (find callee_map p))
        scc)
    sccs;
  (find callee_map, find caller_map, Array.to_list sccs, levels)

let test_callgraph_oracle () =
  List.iter
    (fun corpus ->
      let m =
        Whirl.Lower.lower (Lang.Frontend.load ~files:(Test_engine.corpus_files corpus))
      in
      let cg = Callgraph.build m in
      let callees, callers, sccs, levels = callgraph_oracle cg in
      List.iter
        (fun p ->
          Alcotest.(check (list string))
            (corpus ^ ": callees of " ^ p) (callees p) (Callgraph.callees cg p);
          Alcotest.(check (list string))
            (corpus ^ ": callers of " ^ p) (callers p) (Callgraph.callers cg p))
        (Callgraph.procs cg);
      Alcotest.(check (list (list string)))
        (corpus ^ ": sccs") sccs (Callgraph.sccs cg);
      Alcotest.(check (array int))
        (corpus ^ ": scc levels") levels (Callgraph.scc_levels cg))
    [ "lu"; "gen-small"; "fig1" ]

let test_fig1_summary () =
  let result = Lazy.force fig1_result in
  (* add's summary on formal#0 must contain a DEF and a USE region *)
  let s = Analyze.summary_of result "add" in
  let on_formal mode =
    List.filter
      (fun (e : Summary.entry) ->
        e.Summary.e_key = Summary.Kformal 0
        && Regions.Mode.equal e.Summary.e_mode mode)
      s
  in
  Alcotest.(check int) "one DEF region" 1 (List.length (on_formal Regions.Mode.DEF));
  Alcotest.(check int) "one USE region" 1 (List.length (on_formal Regions.Mode.USE))

let test_fig1_sites_independent () =
  let result = Lazy.force fig1_result in
  let m = result.Analyze.r_module in
  let info = List.assoc "add" result.Analyze.r_infos in
  let caller = info.Collect.p_pu in
  match info.Collect.p_sites with
  | [ s1; s2 ] ->
    Alcotest.(check string) "first callee" "p1" s1.Collect.s_callee;
    let conflicts =
      Parallel.sites_independent m result.Analyze.r_summaries ~caller s1 s2
    in
    Alcotest.(check int) "P1 and P2 are independent" 0 (List.length conflicts)
  | _ -> Alcotest.fail "expected two call sites in add"

let test_fig1_conflicting_sites () =
  (* variant where P2 reads what P1 writes: must report a conflict *)
  let src =
    ( "conflict.f",
      {|      program confl
      integer a(1:200, 1:200)
      integer j
      do j = 1, 10
        call w(a, j)
        call r(a, j)
      end do
      end

      subroutine w(a, j)
      integer a(1:200, 1:200)
      integer j, i
      do i = 1, 100
        a(i, j) = i
      end do
      end

      subroutine r(a, j)
      integer a(1:200, 1:200)
      integer j, i, s
      s = 0
      do i = 50, 150
        s = s + a(i, j)
      end do
      end
|} )
  in
  let result = analyze [ src ] in
  let m = result.Analyze.r_module in
  let info = List.assoc "confl" result.Analyze.r_infos in
  match info.Collect.p_sites with
  | [ s1; s2 ] ->
    let conflicts =
      Parallel.sites_independent m result.Analyze.r_summaries
        ~caller:info.Collect.p_pu s1 s2
    in
    Alcotest.(check bool) "conflict detected" true (conflicts <> [])
  | _ -> Alcotest.fail "expected two call sites"

let test_even_odd_sites_independent () =
  (* interleaved writers: only the stride lattice can prove independence *)
  let src =
    ( "eo.f",
      {|      program eo
      integer a(1:64)
      call evens(a)
      call odds(a)
      end

      subroutine evens(a)
      integer a(1:64)
      integer i
      do i = 2, 64, 2
        a(i) = i
      end do
      end

      subroutine odds(a)
      integer a(1:64)
      integer i
      do i = 1, 63, 2
        a(i) = i
      end do
      end
|} )
  in
  let result = analyze [ src ] in
  let m = result.Analyze.r_module in
  let info = List.assoc "eo" result.Analyze.r_infos in
  match info.Collect.p_sites with
  | [ s1; s2 ] ->
    let conflicts =
      Parallel.sites_independent m result.Analyze.r_summaries
        ~caller:info.Collect.p_pu s1 s2
    in
    Alcotest.(check int) "even/odd writers independent" 0
      (List.length conflicts)
  | _ -> Alcotest.fail "expected two call sites"

let test_loop_parallel () =
  let result = Lazy.force fig1_result in
  let m = result.Analyze.r_module in
  let p1 = Option.get (Whirl.Ir.find_pu m "p1") in
  (* find the outer DO loop in p1 *)
  let loop = ref None in
  Whirl.Wn.preorder
    (fun w ->
      if w.Whirl.Wn.operator = Whirl.Wn.OPR_DO_LOOP && !loop = None then
        loop := Some w)
    (Whirl.Ir.body p1);
  let verdict =
    Parallel.loop_parallel m result.Analyze.r_summaries p1 (Option.get !loop)
  in
  Alcotest.(check bool) "p1 outer loop parallel" true verdict.Parallel.lv_parallel;
  (* the j loop in add repeats the same DEF region: not parallel *)
  let add = Option.get (Whirl.Ir.find_pu m "add") in
  let loop2 = ref None in
  Whirl.Wn.preorder
    (fun w ->
      if w.Whirl.Wn.operator = Whirl.Wn.OPR_DO_LOOP && !loop2 = None then
        loop2 := Some w)
    (Whirl.Ir.body add);
  let verdict2 =
    Parallel.loop_parallel m result.Analyze.r_summaries add (Option.get !loop2)
  in
  Alcotest.(check bool) "add's j loop not parallel" false
    verdict2.Parallel.lv_parallel

(* ------------------------------------------------------------------ *)
(* stride.f: negative/non-unit strides, symbolic bound, messy subscript *)

let stride_result = lazy (analyze [ Corpus.Small.stride_f ])

let test_stride_rows () =
  let result = Lazy.force stride_result in
  let defs = rows_of result ~scope:"stride" ~array:"b" ~mode:"DEF" in
  let ts = List.map triplet defs |> List.sort compare in
  (* three DEF sites: [2:64:2] (downward strided), [1:n:1] (symbolic hi
     folds to 1:32? n is set before the loop, but the analysis treats it
     symbolically -> ub "n"), [1:64:*] (messy via idx) *)
  Alcotest.(check int) "three DEF rows" 3 (List.length ts);
  Alcotest.(check bool) "contains [2:64:2]" true
    (List.mem ("2", "64", "2") ts);
  Alcotest.(check bool) "contains messy [1:64:*]" true
    (List.mem ("1", "64", "*") ts);
  Alcotest.(check bool) "symbolic ub row present" true
    (List.exists (fun (_, ub, _) -> ub = "n") ts)

let test_stride_idx_use () =
  let result = Lazy.force stride_result in
  let uses = rows_of result ~scope:"stride" ~array:"idx" ~mode:"USE" in
  match uses with
  | [ r ] ->
    Alcotest.(check string) "idx use lb" "1" r.Rgnfile.Row.lb;
    Alcotest.(check string) "idx use ub" "10" r.Rgnfile.Row.ub
  | _ -> Alcotest.fail "expected one USE row for idx"

(* ------------------------------------------------------------------ *)
(* file round-trips *)

let test_rgn_roundtrip () =
  let result = Lazy.force matrix_result in
  let text = Rgnfile.Files.(to_string (rgn result.Analyze.r_rows)) in
  match Rgnfile.Files.parse_rgn text with
  | Ok rows ->
    Alcotest.(check int) "row count" (List.length result.Analyze.r_rows)
      (List.length rows);
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "row equal" true (Rgnfile.Row.equal a b))
      result.Analyze.r_rows rows
  | Error e -> Alcotest.fail e

let test_dgn_roundtrip () =
  let result = Lazy.force fig1_result in
  let text = Rgnfile.Files.(to_string (dgn result.Analyze.r_dgn)) in
  match Rgnfile.Files.parse_dgn text with
  | Ok d ->
    Alcotest.(check int) "procs" 4 (List.length d.Rgnfile.Files.dgn_procs);
    Alcotest.(check int) "edges" 3 (List.length d.Rgnfile.Files.dgn_edges)
  | Error e -> Alcotest.fail e

let test_cfg_build () =
  let result = Lazy.force fig1_result in
  let cfg = List.assoc "p1" result.Analyze.r_cfgs in
  Alcotest.(check bool) "blocks > 4" true (Cfg.block_count cfg > 4);
  Alcotest.(check bool) "has edges" true (Cfg.edge_count cfg > 4);
  (* entry dominates everything reachable *)
  let idom = Cfg.dominators cfg in
  Alcotest.(check int) "entry self-dominated" cfg.Cfg.entry
    idom.(cfg.Cfg.entry)

let test_whirl2src () =
  let result = Lazy.force fig1_result in
  let m = result.Analyze.r_module in
  let p1 = Option.get (Whirl.Ir.find_pu m "p1") in
  let src = Whirl.Whirl2src.pu_to_string m p1 in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions a(i, k)" true (contains src "a(i, k)")

let suite =
  [
    Alcotest.test_case "Fig9: aarr DEF rows" `Quick test_fig9_def_rows;
    Alcotest.test_case "Fig9: aarr USE rows" `Quick test_fig9_use_rows;
    Alcotest.test_case "Fig9: aarr attributes" `Quick test_fig9_attributes;
    Alcotest.test_case "Fig9: shared Mem_Loc" `Quick test_fig9_mem_loc_shared;
    Alcotest.test_case "Fig1: interprocedural rows" `Quick test_fig1_rows;
    Alcotest.test_case "Fig1: PASSED rows" `Quick test_fig1_passed;
    Alcotest.test_case "Fig1: call graph" `Quick test_fig1_callgraph;
    Alcotest.test_case "call graph equals its List.mem oracle" `Quick
      test_callgraph_oracle;
    Alcotest.test_case "Fig1: add summary" `Quick test_fig1_summary;
    Alcotest.test_case "Fig1: P1/P2 independent" `Quick test_fig1_sites_independent;
    Alcotest.test_case "conflicting sites detected" `Quick test_fig1_conflicting_sites;
    Alcotest.test_case "loop parallelism verdicts" `Quick test_loop_parallel;
    Alcotest.test_case "even/odd lattice independence" `Quick
      test_even_odd_sites_independent;
    Alcotest.test_case "stride rows" `Quick test_stride_rows;
    Alcotest.test_case "idx USE row" `Quick test_stride_idx_use;
    Alcotest.test_case ".rgn round-trip" `Quick test_rgn_roundtrip;
    Alcotest.test_case ".dgn round-trip" `Quick test_dgn_roundtrip;
    Alcotest.test_case "CFG build" `Quick test_cfg_build;
    Alcotest.test_case "whirl2src" `Quick test_whirl2src;
  ]
