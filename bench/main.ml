(* The evaluation harness: one section per table/figure of the paper,
   each regenerating the corresponding rows/series from scratch, followed
   by a Bechamel timing suite over the analysis kernels.

   Paper-vs-measured numbers are recorded in EXPERIMENTS.md; this binary is
   what produces the "measured" column. *)

let header title =
  Printf.printf "\n================ %s ================\n" title

let row_line (r : Rgnfile.Row.t) =
  Printf.sprintf "%-6s %-10s %-6s %4d %3d  %-10s %-10s %-8s %3d %-7s %-12s %9d %10d %9s %4d"
    r.Rgnfile.Row.array r.Rgnfile.Row.file r.Rgnfile.Row.mode
    r.Rgnfile.Row.references r.Rgnfile.Row.dimensions r.Rgnfile.Row.lb
    r.Rgnfile.Row.ub r.Rgnfile.Row.stride r.Rgnfile.Row.element_size
    r.Rgnfile.Row.data_type r.Rgnfile.Row.dim_size r.Rgnfile.Row.tot_size
    r.Rgnfile.Row.size_bytes r.Rgnfile.Row.mem_loc r.Rgnfile.Row.acc_density

let print_rows rows =
  Printf.printf
    "array  file       mode   refs dim  LB         UB         stride   esz type    dim_size      tot_size size_bytes   mem_loc dens\n";
  List.iter (fun r -> print_endline (row_line r)) rows

let rows_matching result pred =
  List.filter pred result.Ipa.Analyze.r_rows

(* Every section analyzes through the engine pipeline. *)
let analyze_module m = (Engine.run (Engine.config ()) m).Engine.e_result

let analyze_sources files =
  analyze_module (Whirl.Lower.lower (Lang.Frontend.load ~files))

(* ------------------------------------------------------------------ *)
(* Fig 1: interprocedural access analysis example *)

let bench_fig1 () =
  header "Fig 1: interprocedural DEF/USE regions and independence";
  let result = analyze_sources [ Corpus.Small.fig1_f ] in
  let m = result.Ipa.Analyze.r_module in
  List.iter
    (fun proc ->
      let pu = Option.get (Whirl.Ir.find_pu m proc) in
      Format.printf "@[<v 2>%s side effects:@,%a@]@." proc
        (Ipa.Summary.pp m pu)
        (Ipa.Analyze.summary_of result proc))
    [ "p1"; "p2" ];
  let info = List.assoc "add" result.Ipa.Analyze.r_infos in
  (match info.Ipa.Collect.p_sites with
  | [ s1; s2 ] ->
    let conflicts =
      Ipa.Parallel.sites_independent m result.Ipa.Analyze.r_summaries
        ~caller:info.Ipa.Collect.p_pu s1 s2
    in
    Printf.printf
      "paper: P1 defines A(1:100,1:100), P2 uses A(101:200,101:200) => parallelizable\n";
    Printf.printf "measured: %d conflicts => %s\n" (List.length conflicts)
      (if conflicts = [] then "parallelizable" else "NOT parallelizable")
  | _ -> print_endline "unexpected call sites")

(* ------------------------------------------------------------------ *)
(* Fig 2: array analysis techniques, efficiency vs accuracy *)

(* each pattern: name, enumerated points, and the convex region as the ARA
   method would build it from the loop nest that generates the pattern *)
let patterns =
  let open Regions in
  let open Linear in
  let aff e = Affine.Affine e in
  let v x = Expr.var x in
  let c n = Expr.of_int n in
  let ivar name = Var.fresh ~name Var.Ivar in
  let dense_convex () =
    let i = ivar "i" in
    Region.of_subscripts ~extents:[ Some 256 ]
      ~loops:[ { Region.lc_var = i; lc_lo = aff (c 0); lc_hi = aff (c 63); lc_step = Some 1 } ]
      [ aff (v i) ]
  in
  let strided_convex () =
    let i = ivar "i" in
    Region.of_subscripts ~extents:[ Some 256 ]
      ~loops:[ { Region.lc_var = i; lc_lo = aff (c 0); lc_hi = aff (c 60); lc_step = Some 4 } ]
      [ aff (v i) ]
  in
  let block_convex () =
    let i = ivar "i" and j = ivar "j" in
    Region.of_subscripts ~extents:[ Some 64; Some 64 ]
      ~loops:
        [
          { Region.lc_var = i; lc_lo = aff (c 16); lc_hi = aff (c 31); lc_step = Some 1 };
          { Region.lc_var = j; lc_lo = aff (c 16); lc_hi = aff (c 31); lc_step = Some 1 };
        ]
      [ aff (v i); aff (v j) ]
  in
  let triangle_convex () =
    (* do i = 0, 31; do j = 0, i: the inner bound is affine in i, which is
       exactly what the convex method captures and the triplet cannot *)
    let i = ivar "i" and j = ivar "j" in
    Region.of_subscripts ~extents:[ Some 64; Some 64 ]
      ~loops:
        [
          { Region.lc_var = i; lc_lo = aff (c 0); lc_hi = aff (c 31); lc_step = Some 1 };
          { Region.lc_var = j; lc_lo = aff (c 0); lc_hi = aff (v i); lc_step = Some 1 };
        ]
      [ aff (v i); aff (v j) ]
  in
  let scattered_convex () =
    (* b(idx(i)): the subscript is not affine -> MESSY, clamped to the
       declared extent *)
    Region.of_subscripts ~extents:[ Some 256 ] ~loops:[] [ Affine.Messy ]
  in
  [
    ("dense-1d", List.init 64 (fun i -> [ i ]), dense_convex ());
    ("strided-1d", List.init 16 (fun i -> [ 4 * i ]), strided_convex ());
    ( "block-2d",
      List.concat_map (fun i -> List.init 16 (fun j -> [ 16 + i; 16 + j ]))
        (List.init 16 Fun.id),
      block_convex () );
    ( "triangle-2d",
      List.concat_map
        (fun i -> List.filter_map (fun j -> if j <= i then Some [ i; j ] else None)
                    (List.init 32 Fun.id))
        (List.init 32 Fun.id),
      triangle_convex () );
    ("scattered", List.init 40 (fun i -> [ (i * 37) mod 256 ]), scattered_convex ());
  ]

let universe ndims =
  (* bounded grid to measure over-approximation against *)
  if ndims = 1 then List.init 256 (fun i -> [ i ])
  else
    List.concat_map (fun i -> List.init 64 (fun j -> [ i; j ]))
      (List.init 64 Fun.id)

let bench_fig2 () =
  header "Fig 2: summarization methods, storage vs accuracy";
  Printf.printf "%-12s %-9s %10s %10s %10s\n" "pattern" "method" "bytes"
    "accuracy" "covered";
  List.iter
    (fun (name, points, convex) ->
      let ndims = List.length (List.hd points) in
      let exact = List.sort_uniq compare points in
      let n_exact = List.length exact in
      let accuracy described =
        if described = 0 then 0.0
        else float_of_int n_exact /. float_of_int described
      in
      (* reference list *)
      let reflist =
        List.fold_left
          (fun acc p -> Regions.Methods.Reflist.add p acc)
          (Regions.Methods.Reflist.empty ndims)
          points
      in
      (* regular section *)
      let section =
        List.fold_left
          (fun acc p -> Regions.Methods.Section.add p acc)
          (Regions.Methods.Section.empty ndims)
          points
      in
      let convex_count =
        List.length
          (List.filter (Regions.Region.contains_point convex) (universe ndims))
      in
      (* classic: whole array (the universe) *)
      let classic =
        Regions.Methods.Classic.add Regions.Mode.USE
          (Regions.Methods.Classic.empty ndims)
      in
      ignore classic;
      let print_method mname bytes described =
        Printf.printf "%-12s %-9s %10d %9.2f%% %10d\n" name mname bytes
          (100.0 *. accuracy described)
          described
      in
      print_method "classic" 1 (List.length (universe ndims));
      print_method "reflist"
        (Regions.Methods.Reflist.storage_bytes reflist)
        (Regions.Methods.Reflist.cardinal reflist);
      print_method "triplet"
        (Regions.Methods.Section.storage_bytes section)
        (Regions.Methods.Section.cardinal section);
      print_method "convex"
        (24 * ndims * Linear.System.size (convex : Regions.Region.t).Regions.Region.sys)
        convex_count)
    patterns;
  print_endline
    "paper (Fig 2): reference-list most accurate & most storage; classic\n\
     cheapest & coarsest; triplet and convex in between (convex tighter on\n\
     non-rectangular shapes like triangle-2d)"

(* ------------------------------------------------------------------ *)
(* Fig 8 / Fig 9: matrix.c — access density and the aarr rows *)

let bench_fig9 () =
  header "Fig 9: the aarr rows of matrix.c (with Fig 8's access density)";
  let result = analyze_sources [ Corpus.Small.matrix_c ] in
  print_rows
    (rows_matching result (fun r ->
         r.Rgnfile.Row.array = "aarr"
         && (r.Rgnfile.Row.mode = "DEF" || r.Rgnfile.Row.mode = "USE")));
  print_endline
    "paper: DEF refs 2 over [0:7:1] and [1:8:1]; USE refs 3 over [0:7:1] x2\n\
     and [2:6:2]; int, esize 4, 20 elems, 80 bytes, density DEF=2 USE=3";
  (* the advice the paper derives *)
  let project =
    Dragon.Project.make ~name:"matrix" ~dgn:result.Ipa.Analyze.r_dgn
      ~rows:result.Ipa.Analyze.r_rows
      ~sources:[ Corpus.Small.matrix_c ] ()
  in
  List.iter
    (fun c ->
      Printf.printf "advice: %s\n" c.Dragon.Advisor.ci_directive)
    (Dragon.Advisor.copyin_suggestions project);
  List.iter
    (fun r ->
      Printf.printf
        "advice: shrink %s from %d to %d elements (paper: aarr[20] -> aarr[9])\n"
        r.Dragon.Advisor.rs_array
        (List.fold_left ( * ) 1 r.Dragon.Advisor.rs_declared)
        (List.fold_left (fun a (l, u) -> a * (u - l + 1)) 1
           r.Dragon.Advisor.rs_accessed))
    (Dragon.Advisor.resize_suggestions project)

(* ------------------------------------------------------------------ *)
(* Fig 8: the access-density concept, as a chart *)

let bench_fig8 () =
  header "Fig 8: access density (references per allocated byte, as %)";
  let result = analyze_sources (Corpus.Nas_lu.files ()) in
  (* one bar per (array, mode) with nonzero density, highest first *)
  let seen = Hashtbl.create 32 in
  let entries =
    List.filter_map
      (fun (r : Rgnfile.Row.t) ->
        let key = (r.Rgnfile.Row.array, r.Rgnfile.Row.mode) in
        if Hashtbl.mem seen key || r.Rgnfile.Row.acc_density = 0 then None
        else begin
          Hashtbl.add seen key ();
          Some (r.Rgnfile.Row.array, r.Rgnfile.Row.mode, r.Rgnfile.Row.acc_density)
        end)
      result.Ipa.Analyze.r_rows
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  List.iter
    (fun (array, mode, d) ->
      let bar = String.make (min 60 (max 1 (d / 15))) '#' in
      Printf.printf "%-10s %-6s %5d %s
" array mode d bar)
    (List.filteri (fun i _ -> i < 12) entries);
  print_endline
    "paper: density flags hotspot arrays (CLASS 900, XCR 10) regardless of
     their absolute size"

(* ------------------------------------------------------------------ *)
(* Fig 11: the LU call graph *)

let bench_fig11 () =
  header "Fig 11: Dragon call graph for NAS LU";
  let result = analyze_sources (Corpus.Nas_lu.files ()) in
  let cg = result.Ipa.Analyze.r_callgraph in
  print_string (Ipa.Callgraph.to_ascii_tree cg);
  Printf.printf "paper: 24 procedures; measured: %d procedures, %d edges\n"
    (Ipa.Callgraph.node_count cg) (Ipa.Callgraph.edge_count cg)

(* ------------------------------------------------------------------ *)
(* Table II / Fig 12: XCR in verify *)

let bench_tab2 () =
  header "Table II / Fig 12: one-dimensional arrays in verify (NAS LU)";
  let result = analyze_sources (Corpus.Nas_lu.files ()) in
  print_rows
    (rows_matching result (fun r ->
         (r.Rgnfile.Row.array = "xcr" && r.Rgnfile.Row.scope = "verify")
         || r.Rgnfile.Row.array = "class"));
  print_endline
    "paper: XCR USE refs 4, bounds 1:5, 40 bytes, density 10; XCR FORMAL\n\
     density 2; CLASS char DEF refs 9, 1 byte, density 900"

(* ------------------------------------------------------------------ *)
(* Table III / Fig 14: the 4-D array u in rhs *)

let bench_tab3 () =
  header "Table III / Fig 14: multidimensional array u in rhs (NAS LU)";
  let result = analyze_sources (Corpus.Nas_lu.files ()) in
  let u_rows =
    rows_matching result (fun r ->
        r.Rgnfile.Row.array = "u" && r.Rgnfile.Row.file = "rhs.o"
        && r.Rgnfile.Row.mode = "USE")
  in
  Printf.printf "u USE rows in rhs.o: %d; References column: %d\n"
    (List.length u_rows)
    (match u_rows with r :: _ -> r.Rgnfile.Row.references | [] -> 0);
  (* the corner-loop rows the paper screenshots *)
  let corner =
    List.filter
      (fun (r : Rgnfile.Row.t) ->
        String.length r.Rgnfile.Row.ub >= 6
        && String.sub r.Rgnfile.Row.ub 0 6 = "3|5|10")
      u_rows
  in
  print_rows corner;
  print_endline
    "paper: u is 4-D double, dims 64|65|65|5, 1352000 elems, 10816000 bytes,\n\
     USEd 110 times in rhs.o, density 0; one loop accesses regions\n\
     (1:3, 1:5, 1:10) with the last dimension accessed separately (1..4)"

(* ------------------------------------------------------------------ *)
(* Table IV: GPU subarray offload speedup (Case 2) *)

let bench_tab4 () =
  header "Table IV: whole-array vs subarray copyin (cost model)";
  Printf.printf "%-6s %14s %13s %12s %12s %9s\n" "class" "whole bytes"
    "region bytes" "t(whole) s" "t(region) s" "speedup";
  List.iter
    (fun cls ->
      let result = analyze_sources (Corpus.Nas_lu.files ~cls ()) in
      let project =
        Dragon.Project.make ~name:"lu" ~dgn:result.Ipa.Analyze.r_dgn
          ~rows:result.Ipa.Analyze.r_rows
          ~sources:(Corpus.Nas_lu.files ~cls ()) ()
      in
      let corner_lines =
        List.filter_map
          (fun (r : Rgnfile.Row.t) ->
            if
              r.Rgnfile.Row.array = "u" && r.Rgnfile.Row.mode = "USE"
              && String.length r.Rgnfile.Row.ub >= 6
              && String.sub r.Rgnfile.Row.ub 0 6 = "3|5|10"
            then Some r.Rgnfile.Row.line
            else None)
          result.Ipa.Analyze.r_rows
      in
      match corner_lines with
      | [] -> Printf.printf "%c      (corner loop not found)\n" cls
      | lines -> (
        let first_line = List.fold_left min max_int lines in
        let last_line = List.fold_left max 0 lines in
        match
          Dragon.Advisor.copyin_for_lines project ~array:"u" ~first_line
            ~last_line
        with
        | None -> Printf.printf "%c      (no advice)\n" cls
        | Some a ->
          let t_full =
            Gpu.Offload.transfer_time Gpu.Offload.pcie_gen2
              ~bytes:a.Dragon.Advisor.ci_bytes_full
          in
          let t_sub =
            Gpu.Offload.transfer_time Gpu.Offload.pcie_gen2
              ~bytes:a.Dragon.Advisor.ci_bytes_region
          in
          Printf.printf "%c      %14d %13d %12.6f %12.6f %8.1fx\n" cls
            a.Dragon.Advisor.ci_bytes_full a.Dragon.Advisor.ci_bytes_region
            t_full t_sub
            (Gpu.Offload.speedup ~baseline:t_full ~improved:t_sub)))
    Corpus.Nas_lu.classes;
  print_endline
    "paper (Table IV): subarray offload guided by the tool yields a large\n\
     speedup over whole-array copyin on the 24-core cluster; the factor\n\
     grows with the array (class) size -- same shape here"

(* ------------------------------------------------------------------ *)
(* Case 1: measured fusion effect (cache + OpenMP overhead) *)

let case1_unfused =
  ( "unfused.f",
    {|      program unfused
      double precision xcr(64), xcrref(64), xcrdif(64)
      double precision work(1024)
      integer m, i
      do m = 1, 64
        xcr(m) = 1.0d0 + m
        xcrref(m) = 1.0d0
      end do
      do m = 1, 64
        xcrdif(m) = abs((xcr(m) - xcrref(m)) / xcrref(m))
      end do
      do i = 1, 1024
        work(i) = i
      end do
      do m = 1, 64
        if (xcr(m) .gt. 0.0d0) then
          xcrdif(m) = xcrdif(m) + xcr(m) + xcr(m) * 0.5d0
        end if
      end do
      print *, xcrdif(1)
      end
|} )

let case1_fused =
  ( "fused.f",
    {|      program fused
      double precision xcr(64), xcrref(64), xcrdif(64)
      double precision work(1024)
      integer m, i
      do m = 1, 64
        xcr(m) = 1.0d0 + m
        xcrref(m) = 1.0d0
      end do
      do m = 1, 64
        xcrdif(m) = abs((xcr(m) - xcrref(m)) / xcrref(m))
        if (xcr(m) .gt. 0.0d0) then
          xcrdif(m) = xcrdif(m) + xcr(m) + xcr(m) * 0.5d0
        end if
      end do
      do i = 1, 1024
        work(i) = i
      end do
      print *, xcrdif(1)
      end
|} )

let case1_misses source =
  let prog = Lang.Frontend.load ~files:[ source ] in
  let m = Whirl.Lower.lower prog in
  let cache = Cache.create (Cache.two_way ~line_bytes:32 ~lines:64) in
  let _ =
    Interp.run
      ~observer:(fun ev ->
        Cache.access cache ~write:ev.Interp.ev_write ~addr:ev.Interp.ev_addr
          ~bytes:ev.Interp.ev_bytes)
      m
  in
  Cache.stats cache

let case1_hierarchy source =
  let prog = Lang.Frontend.load ~files:[ source ] in
  let m = Whirl.Lower.lower prog in
  let h =
    Cache.Hierarchy.create
      ~l1:(Cache.two_way ~line_bytes:32 ~lines:64)
      ~l2:(Cache.two_way ~line_bytes:64 ~lines:512)
  in
  let _ =
    Interp.run
      ~observer:(fun ev ->
        Cache.Hierarchy.access h ~write:ev.Interp.ev_write
          ~addr:ev.Interp.ev_addr ~bytes:ev.Interp.ev_bytes)
      m
  in
  Cache.Hierarchy.stats h

let bench_case1 () =
  header "Case 1: loop fusion guided by the XCR rows";
  let before = case1_misses case1_unfused in
  let after = case1_misses case1_fused in
  Format.printf "misses before fusion: %d, after fusion: %d (2-way 2 KB cache)@."
    (Cache.misses before) (Cache.misses after);
  let hb = case1_hierarchy case1_unfused and ha = case1_hierarchy case1_fused in
  Format.printf
    "two-level hierarchy AMAT: %.2f -> %.2f cycles/access (L1 2 KB, L2 32 KB)@."
    (Cache.Hierarchy.amat hb) (Cache.Hierarchy.amat ha);
  let saving =
    Gpu.Omp.fusion_saving Gpu.Omp.default_2012 ~threads:24 ~regions_before:2
      ~regions_after:1
  in
  Printf.printf "OpenMP: one parallel do instead of two saves %.2f us per call\n"
    (saving *. 1e6);
  print_endline
    "paper: merging the two XCR loops improves cache utilization and\n\
     removes one parallel-region startup -- same direction here"

(* ------------------------------------------------------------------ *)
(* Applications sweep: "Our tool has been tested on many HPC applications" *)

let bench_apps () =
  header "Applications: analysis summary across the corpus";
  Printf.printf "%-10s %6s %6s %6s %9s  %s\n" "app" "procs" "edges" "rows"
    "par.loops" "top hotspot";
  let apps =
    Corpus.Apps.all
    @ [ ("matrix.c", [ Corpus.Small.matrix_c ]); ("nas-lu", Corpus.Nas_lu.files ()) ]
  in
  List.iter
    (fun (name, files) ->
      let r = analyze_sources files in
      let m = r.Ipa.Analyze.r_module in
      (* count dependence-free DO loops across all procedures *)
      let parallel = ref 0 and total = ref 0 in
      List.iter
        (fun pu ->
          Whirl.Wn.preorder
            (fun w ->
              if w.Whirl.Wn.operator = Whirl.Wn.OPR_DO_LOOP then begin
                incr total;
                let v =
                  Ipa.Parallel.loop_parallel m r.Ipa.Analyze.r_summaries pu w
                in
                if v.Ipa.Parallel.lv_parallel then incr parallel
              end)
            (Whirl.Ir.body pu))
        m.Whirl.Ir.m_pus;
      let project =
        Dragon.Project.make ~name ~dgn:r.Ipa.Analyze.r_dgn
          ~rows:r.Ipa.Analyze.r_rows ~sources:files ()
      in
      let hotspot =
        match Dragon.Advisor.hotspots ~top:1 project with
        | h :: _ ->
          Printf.sprintf "%s %s (density %d)" h.Dragon.Advisor.hs_array
            h.Dragon.Advisor.hs_mode h.Dragon.Advisor.hs_density
        | [] -> "-"
      in
      Printf.printf "%-10s %6d %6d %6d %5d/%-3d  %s\n" name
        (Ipa.Callgraph.node_count r.Ipa.Analyze.r_callgraph)
        (Ipa.Callgraph.edge_count r.Ipa.Analyze.r_callgraph)
        (List.length r.Ipa.Analyze.r_rows)
        !parallel !total hotspot)
    apps

(* ------------------------------------------------------------------ *)
(* Ablations: what each design ingredient buys *)

let is_int s = int_of_string_opt s <> None

let constant_row (r : Rgnfile.Row.t) =
  List.for_all is_int (String.split_on_char '|' r.Rgnfile.Row.lb)
  && List.for_all is_int (String.split_on_char '|' r.Rgnfile.Row.ub)

let ablation_src =
  ( "abl.f",
    {|      program abl
      integer a(1:128), b(1:128), c(1:128)
      integer i, n, m, k
      n = 64
      m = n / 2
      k = 100
      do i = 1, n
        a(i) = i
      end do
      do i = 1, m
        b(i) = a(i)
      end do
      do i = 2, k, 2
        c(i) = b(i / 2)
      end do
      print *, a(1), b(1), c(2)
      end
|} )

let bench_ablation () =
  header "Ablation 1: WOPT constant propagation vs region precision";
  let count files wopt =
    let m = Whirl.Lower.lower (Lang.Frontend.load ~files) in
    let m = if wopt then fst (Wopt.Const_prop.run m) else m in
    let rows = (analyze_module m).Ipa.Analyze.r_rows in
    let const = List.length (List.filter constant_row rows) in
    (const, List.length rows)
  in
  List.iter
    (fun (name, files) ->
      let c0, t0 = count files false in
      let c1, t1 = count files true in
      Printf.printf
        "%-10s without wopt: %d/%d rows fully constant; with wopt: %d/%d\n"
        name c0 t0 c1 t1)
    [ ("abl.f", [ ablation_src ]); ("stride.f", [ Corpus.Small.stride_f ]) ];
  print_endline
    "shape: constant propagation turns symbolic bounds (n, m, k) into the\n\
     exact triplets the paper's tables show";
  header "Ablation 2: interprocedural summaries vs opaque call effects";
  let r = analyze_sources [ Corpus.Small.fig1_f ] in
  let m = r.Ipa.Analyze.r_module in
  let info = List.assoc "add" r.Ipa.Analyze.r_infos in
  (match info.Ipa.Collect.p_sites with
  | [ s1; s2 ] ->
    let with_regions =
      Ipa.Parallel.sites_independent m r.Ipa.Analyze.r_summaries
        ~caller:info.Ipa.Collect.p_pu s1 s2
    in
    (* opaque: what a tool without region summaries must assume *)
    let opaque =
      List.map
        (fun pu -> (pu.Whirl.Ir.pu_name, Ipa.Summary.opaque m pu))
        m.Whirl.Ir.m_pus
    in
    let with_opaque =
      Ipa.Parallel.sites_independent m opaque ~caller:info.Ipa.Collect.p_pu s1
        s2
    in
    Printf.printf
      "Fig 1 call pair: %d conflicts with region summaries, %d with opaque\n"
      (List.length with_regions) (List.length with_opaque);
    print_endline
      "shape: without the paper's interprocedural regions the two calls\n\
       cannot be proven independent (whole-array conflict reported)"
  | _ -> print_endline "unexpected sites")

(* ------------------------------------------------------------------ *)
(* PGAS / coarray future-work extension *)

let bench_pgas () =
  header "PGAS extension: remote coarray access rows (paper future work)";
  let r = analyze_sources [ Corpus.Small.caf_f ] in
  print_rows
    (rows_matching r (fun row ->
         row.Rgnfile.Row.mode = "RUSE" || row.Rgnfile.Row.mode = "RDEF"));
  print_endline
    "paper (Sec VI): \"we plan to extend our array analysis tool to support\n\
     the analysis and visualization of remote array accesses\" -- RDEF/RUSE\n\
     rows above are that extension"

(* ------------------------------------------------------------------ *)
(* Locality: interchange guided by the region/layout analysis *)

let locality_src =
  ( "loc.f",
    {|      program loc
      double precision g(1:96, 1:96), h(1:96, 1:96)
      integer i, j
      do j = 1, 96
        do i = 1, 96
          g(j, i) = i + j
          h(j, i) = i - j
        end do
      end do
      print *, g(1, 1), h(2, 2)
      end
|} )

let bench_locality () =
  header "Locality: layout-aware interchange (use case 1, measured)";
  let result = analyze_sources [ locality_src ] in
  let m = result.Ipa.Analyze.r_module in
  let pu = List.hd m.Whirl.Ir.m_pus in
  List.iter
    (fun s ->
      Printf.printf
        "suggestion: interchange (%s, %s) nest at line %d (%d stride-heavy refs, legal=%b)\n"
        s.Ipa.Lno.loc_outer s.Ipa.Lno.loc_inner s.Ipa.Lno.loc_line
        s.Ipa.Lno.loc_bad_refs s.Ipa.Lno.loc_legal)
    (Ipa.Lno.locality_suggestions m result.Ipa.Analyze.r_summaries pu);
  let misses mm =
    let cache = Cache.create (Cache.two_way ~line_bytes:64 ~lines:128) in
    let _ =
      Interp.run
        ~observer:(fun ev ->
          Cache.access cache ~write:ev.Interp.ev_write ~addr:ev.Interp.ev_addr
            ~bytes:ev.Interp.ev_bytes)
        mm
    in
    Cache.misses (Cache.stats cache)
  in
  let before = misses m in
  let swapped, n =
    Ipa.Lno.interchange_pu m result.Ipa.Analyze.r_summaries pu
      ~want:(fun ~outer_ivar:_ ~inner_ivar:_ -> true)
  in
  let after = misses { m with Whirl.Ir.m_pus = [ swapped ] } in
  Printf.printf
    "interchanged %d nest(s): misses %d -> %d (%.1fx fewer; 8 KB 2-way cache)\n"
    n before after
    (float_of_int before /. float_of_int (max 1 after));
  print_endline
    "paper use case: \"Identify transformations based on Dragon feedback to\n\
     improve locality and reduce cache misses\""

(* ------------------------------------------------------------------ *)
(* Miss-rate curve: the cache-configuration view of the related work the
   paper builds on ([9]: "miss rate changes across programs and cache
   configurations") *)

let bench_misscurve () =
  header "Miss-rate vs cache size (jacobi2d, 2-way, 32 B lines)";
  let prog = Lang.Frontend.load ~files:[ Corpus.Apps.jacobi2d ] in
  let m = Whirl.Lower.lower prog in
  Printf.printf "%10s %10s %10s
" "capacity" "miss-rate" "";
  List.iter
    (fun lines ->
      let cache = Cache.create (Cache.two_way ~line_bytes:32 ~lines) in
      let _ =
        Interp.run
          ~observer:(fun ev ->
            Cache.access cache ~write:ev.Interp.ev_write ~addr:ev.Interp.ev_addr
              ~bytes:ev.Interp.ev_bytes)
          m
      in
      let rate = Cache.miss_rate (Cache.stats cache) in
      let bar = String.make (max 1 (int_of_float (rate *. 400.0))) '#' in
      Printf.printf "%8d B %9.4f%% %s
"
        (Cache.capacity_bytes (Cache.two_way ~line_bytes:32 ~lines))
        (rate *. 100.0) bar)
    [ 8; 16; 32; 64; 128; 256; 512; 1024 ];
  print_endline
    "shape: the miss rate falls in steps as the working set (two 34x34
     double grids ~ 18 KB) begins to fit"

(* ------------------------------------------------------------------ *)
(* BENCH records: every machine-readable result is an [Obs.Json.t]
   written by [write_record] and gated by check-json against [gates] *)

type bound = Present | Floor of float | Ceiling of float | True

(* One row per gate: the bench, the member path inside its section (dotted;
   in a list, a [key=value] segment selects the element whose [key] member
   is that string) and the bound.  Present means the member is a number,
   True that it is [true].  This is the only place a floor or ceiling is
   written down: emitters record it from here next to the value as
   [<name>_floor] / [<name>_ceiling], and check-json fails a file whose
   recorded bound differs. *)
let gates =
  let present bench prefix = List.map (fun n -> (bench, prefix ^ n, Present)) in
  let ctx =
    [ "ctx_contexts"; "ctx_bound_hits"; "ctx_elims" ]
  in
  (* bounds and gen measure the same seed-42 corpus *)
  let sparse_proven = Floor 3000. in
  [
    (* the production solver core and join against the reference eliminator *)
    ("solver", "end_to_end.feasible_speedup", Floor 2.);
    ("regions", "join.implies_speedup", Floor 2.);
    (* the production join trades nothing for speed *)
    ("regions", "join.identical", True);
    (* one pack segment per producer: the cached frontend and the engine *)
    ("engine", "cold_files", Ceiling 2.);
    ("engine", "warm_speedup", Floor 1.5);
    (* collect builds each distinct access shape once per run *)
    ("engine", "shape_reuse", Floor 2.);
    (* the layers after summarize allocate in proportion to what they
       print: 2266 bytes with the streaming writers, 7842 with the
       per-access formatting they replaced *)
    ("engine", "output_alloc_per_row", Ceiling 2500.);
    (* a one-file edit digests only the edited file's PUs, and re-interns
       every stored entry without renaming a variable *)
    ("engine", "edit_digests_beyond_file", Ceiling 0.);
    ("engine", "edit_entries_remapped", Ceiling 0.);
    (* ... and reads no file's WN trees: every other file's PUs hit *)
    ("engine", "edit_bodies_decoded", Ceiling 0.);
    ("bounds", "corpora.corpus=gen.sparse_proven", sparse_proven);
    (* the scale the generated corpus keeps *)
    ("gen", "files", Floor 200.);
    ("gen", "pus", Floor 2000.);
    ("gen", "sparse_proven", sparse_proven);
    ("gen", "frontend_speedup", Floor 2.);
    (* a cold cached frontend allocates 17.1 words per source byte with
       array-backed token streams and one encoding per tree, 25.1 with
       the token lists and the second (Marshal) encoding they replaced *)
    ("gen", "frontend_cold_alloc_words_per_byte", Ceiling 20.);
    (* no proven-safe access faults; every runtime fault has an inspector row *)
    ("gen", "diffcheck.safe_faults", Ceiling 0.);
    ("gen", "diffcheck.uncovered", Ceiling 0.);
    ("gen", "diffcheck.ok", True);
    (* even if every recorded span were on a hot path, the disabled checks
       cost a vanishing fraction of the analysis *)
    ("obs", "spans_per_run", Floor 1.);
    ("obs", "disabled_cost_fraction", Ceiling 0.02);
    ("obs", "disabled_cost_ok", True);
  ]
  @ present "solver" "end_to_end.learned."
      ([ "feasible_wall_ns"; "implies_wall_ns"; "solver_wall_ns"; "small_runs";
         "ctx_proj_hits" ] @ ctx)
  @ present "solver" "micro." [ "implies_learned_s" ]
  @ present "regions" "join.learned."
      ([ "implies_queries"; "implies_memo_hits"; "implies_wall_ns" ] @ ctx)
  @ present "regions" ""
      [ "end_to_end.learned.analysis_wall_s"; "intern.system.hit_rate" ]
  @ present "engine" ""
      [ "lu_cold_wall_s"; "lu_warm_wall_s"; "gen_small_cold_wall_s";
        "gen_small_warm_wall_s"; "gen_small_cold_collect_s" ]

(* what a recorded bound's member name adds to the gated value's *)
let suffix = function
  | Floor _ -> "_floor"
  | Ceiling _ -> "_ceiling"
  | Present | True -> ""

(* the bound of the gate on [bench]'s [path], for an emitter *)
let bound_of bench path =
  match List.find_opt (fun (b, p, _) -> b = bench && p = path) gates with
  | Some (_, _, ((Floor v | Ceiling v) as bound)) -> (bound, v)
  | _ -> invalid_arg (Printf.sprintf "no floor or ceiling on %s.%s" bench path)

(* the member recording that bound, written next to the gated value *)
let recorded_bound bench path =
  let bound, v = bound_of bench path in
  let name = List.hd (List.rev (String.split_on_char '.' path)) in
  (name ^ suffix bound, Obs.Json.Num v)

let int n = Obs.Json.Num (float_of_int n)

(* the learned-context counters the solver and regions records share *)
let ctx_counts (d : Linear.Solver_stats.t) =
  List.map
    (fun (k, n) -> (k, int n))
    [ ("ctx_contexts", d.ctx_contexts); ("ctx_bound_hits", d.ctx_bound_hits);
      ("ctx_proj_hits", d.ctx_proj_hits); ("ctx_elims", d.ctx_elims) ]

(* a measured float kept to [d] decimals *)
let fixed d x =
  let s = 10. ** float_of_int d in
  Obs.Json.Num (Float.round (x *. s) /. s)

(* the "stamp" member every BENCH record carries: the host and sources it
   was measured on *)
let stamp () =
  let commit =
    match Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null" with
    | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")
    | exception Unix.Unix_error _ -> "unknown"
  in
  Obs.Json.Obj
    [
      ("nproc", int (Engine_pool.recommended ()));
      ("ocaml", Str Sys.ocaml_version);
      ("commit", Str commit);
    ]

(* With [--json] or [--out], write the record of [bench] to [out] (default
   BENCH_<bench>.json): its name, its stamp, then [members]. *)
let write_record ~json ~out bench members =
  if json || out <> None then begin
    let path = Option.value out ~default:("BENCH_" ^ bench ^ ".json") in
    let record =
      Obs.Json.Obj (("bench", Str bench) :: ("stamp", stamp ()) :: members)
    in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Obs.Json.render_indented record));
    Printf.printf "wrote %s\n" path
  end

(* ------------------------------------------------------------------ *)
(* Engine: parallel fan-out and the incremental summary cache.  With
   --json it also records the store numbers in BENCH_engine.json: the
   cold and warm in-process engine wall on LU and gen-small, the files
   one cold gen-small run publishes, the collect phase of a cold
   gen-small run with how often its access shapes repeat, and what a
   one-file gen-small edit recomputes in a fresh uhc process. *)

(* A one-file edit of gen-small as a user makes it: a cold uhc run over
   the sources on disk, a line-preserving edit of one file, and a warm
   uhc run.  Each run is a new process, so symbolic variables get the ids
   the stored entries were written with.  The warm run's counters: PU
   digests computed (the edited file's, as the frontend lowers them),
   store entries re-interned by renaming, and cached files whose WN trees
   were decoded.  uhc is the [bin/uhc.exe]
   beside this executable's directory, so it must be built. *)
let one_file_edit files ~dir =
  let uhc =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "uhc.exe" ]
  in
  if not (Sys.file_exists uhc) then
    failwith (uhc ^ " is missing: build it first (dune build)");
  let src = Filename.concat dir "src" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ dir; src ];
  let write (name, contents) =
    Out_channel.with_open_bin (Filename.concat src name) (fun oc ->
        output_string oc contents)
  in
  List.iter write files;
  let metrics = Filename.concat dir "metrics.json" in
  let run () =
    let cmd =
      String.concat " "
        (List.map Filename.quote
           ([ uhc ]
           @ List.map (fun (name, _) -> Filename.concat src name) files
           @ [ "-o"; dir; "-p"; "p"; "--no-ledger"; "--cache-dir";
               Filename.concat dir "cache"; "--metrics"; metrics ]))
    in
    if Sys.command (cmd ^ " >/dev/null 2>&1") <> 0 then
      failwith ("bench engine: failed: " ^ cmd)
  in
  run ();
  (* " + 0" after the last assignment of the second file (the first
     holds main) *)
  let name, contents = List.nth files 1 in
  let lines = String.split_on_char '\n' contents in
  let last =
    List.fold_left
      (fun (i, found) l ->
        ( i + 1,
          if String.contains l '=' && not (String.contains l '!') then i
          else found ))
      (0, -1) lines
    |> snd
  in
  write
    ( name,
      String.concat "\n"
        (List.mapi (fun i l -> if i = last then l ^ " + 0" else l) lines) );
  run ();
  match
    Result.bind
      (Obs.Json.parse (In_channel.with_open_bin metrics In_channel.input_all))
      (fun doc ->
        match Obs.Json.member "metrics" doc with
        | Some l -> Obs.Metrics.of_json l
        | None -> Error "no metrics member")
  with
  | Ok d ->
    ( Obs.Metrics.value d "engine.digest.computed",
      Obs.Metrics.value d "store.reintern.remapped",
      Obs.Metrics.value d "frontend.body.decoded" )
  | Error e -> failwith (metrics ^ ": " ^ e)

let bench_engine ~json ~out () =
  header "Engine: parallel + incremental analysis (NAS LU, gen-small)";
  let lu_files = Corpus.Nas_lu.files () in
  let gs_files = Corpus.Gen.generate Corpus.Gen.default in
  let lower files () = Whirl.Lower.lower (Lang.Frontend.load ~files) in
  (* one throwaway run so frontend/layout code paths are hot *)
  ignore (Engine.run (Engine.config ()) (lower lu_files ()));
  let best f =
    let t = ref infinity in
    for _ = 1 to 5 do
      t := min !t (f ()).Engine.e_stats.Engine.Stats.s_total_wall
    done;
    !t
  in
  let cores = Engine_pool.recommended () in
  let serial =
    best (fun () -> Engine.run (Engine.config ()) (lower lu_files ()))
  in
  let par =
    best (fun () -> Engine.run (Engine.config ~jobs:4 ()) (lower lu_files ()))
  in
  Printf.printf
    "no cache: serial %.4fs, 4 domains %.4fs (%.2fx; host has %d core%s)\n"
    serial par (serial /. par) cores
    (if cores = 1 then "" else "s");
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "uhc_bench_cache_%d" (Unix.getpid ()))
  in
  let rm () =
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))
  in
  let disk files =
    let with_store () =
      Engine.run
        (Engine.config ~store:(Engine_store.create ~dir ()) ())
        (lower files ())
    in
    let cold =
      best (fun () ->
          rm ();
          with_store ())
    in
    (* warm: every run hits a cache fully populated by the previous one *)
    let warm = best with_store in
    rm ();
    (cold, warm)
  in
  let lu_cold, lu_warm = disk lu_files in
  let gs_cold, gs_warm = disk gs_files in
  (* what one cold gen-small invocation leaves in the cache: the cached
     frontend and the engine publish through one handle *)
  let cold_files =
    let store = Engine_store.create ~dir () in
    let fr = Frontend_cache.load ~store gs_files in
    ignore (Engine.run (Engine.config ~store ()) fr.Frontend_cache.fr_module);
    let n =
      Array.length
        (Sys.readdir (Filename.concat dir (Engine_store.schema ())))
    in
    rm ();
    n
  in
  (* the collect phase of a cold gen-small run at --jobs 1, and its shape
     reuse: regions requested per distinct shape built (deterministic) *)
  let gs_collect, shape_reuse =
    let requested = Obs.Metrics.counter "collect.regions.requested" in
    let distinct = Obs.Metrics.counter "collect.regions.distinct" in
    let collect = ref infinity and reuse = ref 0. in
    for _ = 1 to 5 do
      rm ();
      let r0 = Obs.Metrics.Counter.get requested in
      let d0 = Obs.Metrics.Counter.get distinct in
      let er =
        Engine.run
          (Engine.config ~jobs:1 ~store:(Engine_store.create ~dir ()) ())
          (lower gs_files ())
      in
      List.iter
        (fun p ->
          if p.Engine.Stats.ph_name = "collect" then
            collect := min !collect p.Engine.Stats.ph_wall)
        er.Engine.e_stats.Engine.Stats.s_phases;
      reuse :=
        float_of_int (Obs.Metrics.Counter.get requested - r0)
        /. float_of_int (max 1 (Obs.Metrics.Counter.get distinct - d0))
    done;
    rm ();
    (!collect, !reuse)
  in
  (* what the layers after summarize allocate per .rgn row: assemble, the
     bounds and permissions clients, their tables, the three output files
     and the report.  Measured on the second cold gen-small run at --jobs 1
     (the first fills process-wide tables), where the count is
     deterministic. *)
  let output_alloc_per_row =
    let once () =
      let er = Engine.run (Engine.config ~jobs:1 ()) (lower gs_files ()) in
      let assemble =
        List.fold_left
          (fun acc p ->
            if p.Engine.Stats.ph_name = "assemble" then
              acc +. p.Engine.Stats.ph_alloc
            else acc)
          0. er.Engine.e_stats.Engine.Stats.s_phases
      in
      let r = er.Engine.e_result in
      let ctx =
        {
          Analyses.Analysis.ctx_module = r.Ipa.Analyze.r_module;
          ctx_result = r;
        }
      in
      rm ();
      Sys.mkdir dir 0o755;
      let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
      let a0 = Obs.Sink.allocated_bytes () in
      let outcomes =
        Analyses.Registry.run_selected ~selection:[ "bounds"; "permissions" ]
          ctx
      in
      List.iter
        (fun (report, _) ->
          Format.fprintf null "@[<v>%a@]@?" Analyses.Report.render report)
        outcomes;
      ignore (Ipa.Analyze.write_outputs r ~dir ~project:"project");
      Analyses.Report.save
        ~path:(Filename.concat dir "report.json")
        (List.map fst outcomes);
      let bytes = assemble +. Obs.Sink.allocated_bytes () -. a0 in
      rm ();
      bytes /. float_of_int (List.length r.Ipa.Analyze.r_rows)
    in
    ignore (once ());
    once ()
  in
  let edit_pus = Corpus.Gen.default.Corpus.Gen.g_pus_per_file in
  let edit_computed, edit_remapped, edit_decoded =
    Fun.protect ~finally:rm (fun () -> one_file_edit gs_files ~dir)
  in
  Printf.printf "disk cache, LU: cold %.4fs, warm %.4fs (%.1fx)\n" lu_cold
    lu_warm (lu_cold /. lu_warm);
  Printf.printf "disk cache, gen-small: cold %.4fs, warm %.4fs (%.1fx)\n"
    gs_cold gs_warm (gs_cold /. gs_warm);
  (* both corpora together: gen-small alone is a few milliseconds *)
  let warm_speedup = (lu_cold +. gs_cold) /. (lu_warm +. gs_warm) in
  Printf.printf "warm speedup, both corpora: %.2fx\n" warm_speedup;
  Printf.printf "a cold gen-small run publishes %d file%s\n" cold_files
    (if cold_files = 1 then "" else "s");
  Printf.printf
    "one-file gen-small edit (%d PUs in the file): %d PU digests computed, \
     %d store entries remapped, %d bodies decoded\n"
    edit_pus edit_computed edit_remapped edit_decoded;
  Printf.printf
    "cold gen-small collect: %.4fs, %.2f regions requested per distinct shape\n"
    gs_collect shape_reuse;
  Printf.printf
    "output layers (assemble, clients, tables, files, report): %.0f bytes \
     allocated per .rgn row\n"
    output_alloc_per_row;
  print_endline
    "warm runs skip collection and summary propagation entirely;\n\
     outputs are byte-identical in every mode (checked by test_engine)";
  write_record ~json ~out "engine"
    [ ("engine", Obj [
        ("lu_cold_wall_s", fixed 6 lu_cold);
        ("lu_warm_wall_s", fixed 6 lu_warm);
        ("gen_small_cold_wall_s", fixed 6 gs_cold);
        ("gen_small_warm_wall_s", fixed 6 gs_warm);
        ("warm_speedup", fixed 2 warm_speedup);
        recorded_bound "engine" "warm_speedup";
        ("cold_files", int cold_files);
        ("gen_small_cold_collect_s", fixed 6 gs_collect);
        ("shape_reuse", fixed 2 shape_reuse);
        recorded_bound "engine" "shape_reuse";
        ("output_alloc_per_row", fixed 1 output_alloc_per_row);
        recorded_bound "engine" "output_alloc_per_row";
        ("edit_digests_computed", int edit_computed);
        ("edit_file_pus", int edit_pus);
        ("edit_digests_beyond_file", int (edit_computed - edit_pus));
        recorded_bound "engine" "edit_digests_beyond_file";
        ("edit_entries_remapped", int edit_remapped);
        recorded_bound "engine" "edit_entries_remapped";
        ("edit_bodies_decoded", int edit_decoded);
        recorded_bound "engine" "edit_bodies_decoded" ]) ]

(* ------------------------------------------------------------------ *)
(* Solver: the production core against the reference eliminator, end to
   end and per query *)

(* One registry diff around [f]: the counter deltas a bench leg reports
   ([Linear.Solver_stats.of_metrics] reads the solver's share). *)
let measured f =
  let m0 = Obs.Metrics.snapshot () in
  let r = f () in
  (r, Obs.Metrics.diff (Obs.Metrics.snapshot ()) m0)

let bench_solver ~json ~out () =
  header "Solver: learned core vs the reference eliminator (NAS LU)";
  let files = Corpus.Nas_lu.files () in
  let lower () = Whirl.Lower.lower (Lang.Frontend.load ~files) in
  (* throwaway run so frontend/layout paths are hot *)
  ignore (analyze_module (lower ()));
  (* ---- end-to-end: solver wall of the production core vs the oracle *)
  let run_once ~oracle =
    Linear.System.clear_cache ();
    let (res, wall), d =
      measured (fun () ->
          let t0 = Unix.gettimeofday () in
          let analyze () = analyze_module (lower ()) in
          let res =
            if oracle then Linear.System.Reference.run analyze else analyze ()
          in
          (res, Unix.gettimeofday () -. t0))
    in
    (res, wall, Linear.Solver_stats.of_metrics d)
  in
  (* inside the oracle scope every query (implies included) bottoms out in
     reference feasibility checks; the production core answers implies on
     its own contexts, so its solver wall is both sums *)
  let solver_ns ~oracle (d : Linear.Solver_stats.t) =
    if oracle then d.Linear.Solver_stats.wall_reference_ns
    else d.Linear.Solver_stats.wall_fast_ns + d.Linear.Solver_stats.implies_wall_ns
  in
  let best_run ~oracle =
    let best = ref None in
    for _ = 1 to 3 do
      let (_, _, d) as r = run_once ~oracle in
      match !best with
      | Some (_, _, d') when solver_ns ~oracle d' <= solver_ns ~oracle d -> ()
      | _ -> best := Some r
    done;
    Option.get !best
  in
  let _, wall_ref, d_ref = best_run ~oracle:true in
  let res, wall_learned, d_learned = best_run ~oracle:false in
  let open Linear.Solver_stats in
  let ref_ns = solver_ns ~oracle:true d_ref in
  let learned_ns = solver_ns ~oracle:false d_learned in
  let speedup = float_of_int ref_ns /. float_of_int (max 1 learned_ns) in
  Printf.printf
    "end-to-end solver wall: reference %d feasible queries %.3f ms, learned \
     %d feasible + %d implies queries %.3f ms => %.1fx\n"
    d_ref.queries
    (float_of_int ref_ns /. 1e6)
    d_learned.queries d_learned.implies_queries
    (float_of_int learned_ns /. 1e6)
    speedup;
  Printf.printf
    "learned core: %d box-refuted, %d syntactic, %d FM runs; %d contexts, %d \
     bound hits, %d proj hits, %d elims\n"
    d_learned.box_refutations d_learned.syntactic_hits d_learned.fm_runs
    d_learned.ctx_contexts d_learned.ctx_bound_hits d_learned.ctx_proj_hits
    d_learned.ctx_elims;
  Printf.printf "analysis wall: reference %.4fs, learned %.4fs\n" wall_ref
    wall_learned;
  (* ---- micro: harvested region systems through each query *)
  let systems =
    List.concat_map
      (fun (_, info) ->
        List.map
          (fun (a : Ipa.Collect.access) ->
            a.Ipa.Collect.ac_region.Regions.Region.sys)
          info.Ipa.Collect.p_accesses)
      res.Ipa.Analyze.r_infos
  in
  let rec adjacent = function
    | a :: (b :: _ as tl) -> (a, b) :: adjacent tl
    | _ -> []
  in
  let pairs = adjacent systems in
  let passes = 5 in
  (* [f] runs [passes] times after one cache clear, so the production legs
     measure a cold pass plus warm memo passes *)
  let timed f =
    Linear.System.clear_cache ();
    let t, d =
      measured (fun () ->
          let t0 = Unix.gettimeofday () in
          for _ = 1 to passes do
            f ()
          done;
          Unix.gettimeofday () -. t0)
    in
    (t, Linear.Solver_stats.of_metrics d)
  in
  let feas feasible () = List.iter (fun s -> ignore (feasible s)) systems in
  let impl implies () =
    List.iter
      (fun (a, b) ->
        List.iter (fun c -> ignore (implies a c)) (Linear.System.to_list b))
      pairs
  in
  let proj_run () =
    List.iter
      (fun s ->
        let keep =
          Linear.Var.Set.filter Linear.Var.is_subscript (Linear.System.vars s)
        in
        ignore (Linear.System.project_onto keep s))
      systems
  in
  let feas_reference, _ = timed (feas Linear.System.Reference.feasible) in
  let feas_cold, d_feas_cold =
    timed (fun () ->
        Linear.System.clear_cache ();
        feas Linear.System.feasible ())
  in
  let feas_memo, _ = timed (feas Linear.System.feasible) in
  let impl_reference, _ = timed (impl Linear.System.Reference.implies) in
  let impl_learned, d_impl_learned = timed (impl Linear.System.implies) in
  let proj, _ = timed proj_run in
  let small_runs = d_feas_cold.small_runs in
  Printf.printf
    "micro (%d systems x %d passes):\n\
    \  feasible: reference %.4fs, learned cold %.4fs (%d small-path), learned \
     memo %.4fs\n\
    \  implies:  reference %.4fs, learned %.4fs (%d bound hits, %d memo \
     hits)\n\
    \  project:  %.4fs (exact eliminator, context-memoized)\n"
    (List.length systems) passes feas_reference feas_cold small_runs feas_memo
    impl_reference impl_learned d_impl_learned.ctx_bound_hits
    d_impl_learned.implies_memo_hits proj;
  (* ---- machine-readable record *)
  write_record ~json ~out "solver"
    [ ("corpus", Str "nas-lu");
      ("solver", Obj [
        ("end_to_end", Obj [
          ("reference", Obj [
            ("feasible_queries", int d_ref.queries);
            ("solver_wall_ns", int ref_ns);
            ("analysis_wall_s", fixed 6 wall_ref) ]);
          ("learned", Obj ([
            ("feasible_queries", int d_learned.queries);
            ("feasible_wall_ns", int d_learned.wall_fast_ns);
            ("implies_queries", int d_learned.implies_queries);
            ("implies_wall_ns", int d_learned.implies_wall_ns);
            ("solver_wall_ns", int learned_ns);
            ("analysis_wall_s", fixed 6 wall_learned);
            ("box_refutations", int d_learned.box_refutations);
            ("syntactic_hits", int d_learned.syntactic_hits);
            ("fm_runs", int d_learned.fm_runs);
            ("small_runs", int d_learned.small_runs) ]
            @ ctx_counts d_learned));
          ("feasible_speedup", fixed 2 speedup);
          recorded_bound "solver" "end_to_end.feasible_speedup" ]);
        ("micro", Obj [
          ("systems", int (List.length systems));
          ("passes", int passes);
          ("feasible_reference_s", fixed 6 feas_reference);
          ("feasible_cold_s", fixed 6 feas_cold);
          ("feasible_memo_s", fixed 6 feas_memo);
          ("small_runs", int small_runs);
          ("implies_reference_s", fixed 6 impl_reference);
          ("implies_learned_s", fixed 6 impl_learned);
          ("project_s", fixed 6 proj) ]) ]) ]

(* ------------------------------------------------------------------ *)
(* Bounds: the bounds-checking client on every corpus — verdict counts
   (how many runtime checks the analysis eliminates) and what the extra
   implies queries cost *)

let bench_bounds ~json ~out () =
  header "Bounds: three-valued verdicts and check elimination (all corpora)";
  let corpora =
    [
      ("fig1", [ Corpus.Small.fig1_f ]);
      ("matrix", [ Corpus.Small.matrix_c ]);
      ("stride", [ Corpus.Small.stride_f ]);
      ("lu", Corpus.Nas_lu.files ());
      (* the pinned seed-42 scale workload: hundreds of generated files,
         thousands of PUs, with index-array property directives *)
      ("gen", Corpus.Gen.(generate (standard ())));
    ]
  in
  let per_corpus =
    List.map
      (fun (name, files) ->
        let m = Whirl.Lower.lower (Lang.Frontend.load ~files) in
        let result = analyze_module m in
        let ctx =
          { Analyses.Analysis.ctx_module = m; Analyses.Analysis.ctx_result = result }
        in
        let (report, wall), d =
          measured (fun () ->
              let t0 = Unix.gettimeofday () in
              let report, _diags = Analyses.Bounds.run ctx in
              (report, Unix.gettimeofday () -. t0))
        in
        let d = Linear.Solver_stats.of_metrics d in
        let count key =
          match List.assoc_opt key report.Analyses.Report.r_summary with
          | Some v -> int_of_string v
          | None -> 0
        in
        (name, count, wall, d))
      corpora
  in
  Printf.printf
    "corpus  accesses safe unsafe maybe eliminated residual sparse proven  implies  implies_ms  wall_ms\n";
  List.iter
    (fun (name, count, wall, (d : Linear.Solver_stats.t)) ->
      Printf.printf "%-7s %8d %4d %6d %5d %10d %8d %6d %6d %8d %11.3f %8.3f\n"
        name (count "accesses") (count "safe") (count "unsafe") (count "maybe")
        (count "checks_eliminated") (count "residual_checks")
        (count "sparse_accesses") (count "sparse_proven")
        d.Linear.Solver_stats.implies_queries
        (float_of_int d.Linear.Solver_stats.implies_wall_ns /. 1e6)
        (wall *. 1e3))
    per_corpus;
  let corpus (name, count, wall, (d : Linear.Solver_stats.t)) =
    let counts =
      [ "accesses"; "safe"; "unsafe"; "maybe"; "checks_eliminated";
        "residual_checks"; "sparse_accesses"; "sparse_proven";
        "inspector_entries" ]
    in
    let floor = recorded_bound "bounds" "corpora.corpus=gen.sparse_proven" in
    Obs.Json.Obj
      ((("corpus", Obs.Json.Str name)
        :: List.map (fun k -> (k, int (count k))) counts)
      @ (if name = "gen" then [ floor ] else [])
      @ [ ("implies_queries", int d.implies_queries);
          ("implies_wall_ns", int d.implies_wall_ns);
          ("analysis_wall_s", fixed 6 wall) ])
  in
  write_record ~json ~out "bounds"
    [ ("schema_version", int Analyses.Report.schema_version);
      ("bounds", Obj [ ("corpora", List (List.map corpus per_corpus)) ]) ]

(* ------------------------------------------------------------------ *)
(* Gen: the seeded corpus generator — config, determinism digest, scale,
   and the differential harness (static verdicts vs one interpreted run)
   on the pinned seed-42 standard workload *)

(* The frontend with per-file artifacts on the gen corpus: the uncached
   composition, a cold cached run (parse, check, lower, write every
   artifact) and a warm run after a one-file edit (one file recomputed,
   the rest read back).  Medians of 3 cold runs (each on an empty
   directory) and 5 warm runs (each after a new edit). *)
type frontend_walls = {
  fe_uncached : float;
  fe_cold : float;
  fe_warm : float;
  fe_cold_alloc : float;  (* words allocated per source byte, cold *)
}

let bench_frontend files =
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "uhc_bench_frontend_%d" (Unix.getpid ()))
  in
  let rm () =
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))
  in
  let cached files () =
    Frontend_cache.load ~store:(Engine_store.create ~dir ()) files
  in
  let uncached =
    median
      (List.init 3 (fun _ ->
           time (fun () -> Whirl.Lower.lower (Lang.Frontend.load ~files))))
  in
  let cold =
    median
      (List.init 3 (fun _ ->
           rm ();
           time (cached files)))
  in
  (* trailing blanks: a new file key each time, same lines *)
  let edit k =
    match files with
    | (name, src) :: rest -> (name, src ^ String.make (k + 1) ' ' ^ "\n") :: rest
    | [] -> []
  in
  let warm = median (List.init 5 (fun k -> time (cached (edit k)))) in
  (* the words a cold cached load allocates per source byte: parse, check,
     lower, digest and every artifact written.  Measured on the second of
     two loads, each on an empty directory (the first fills process-wide
     tables), where the count is deterministic. *)
  let cold_alloc =
    let once () =
      rm ();
      let a0 = Obs.Sink.allocated_bytes () in
      ignore (Sys.opaque_identity (cached files ()));
      Obs.Sink.allocated_bytes () -. a0
    in
    ignore (once ());
    let bytes =
      List.fold_left (fun acc (_, src) -> acc + String.length src) 0 files
    in
    once () /. float_of_int (Sys.word_size / 8) /. float_of_int bytes
  in
  rm ();
  Printf.printf
    "frontend: uncached %.1f ms  cold (artifacts written) %.1f ms  warm after \
     a one-file edit %.1f ms  (%.1fx cold/warm)  cold allocates %.1f words \
     per source byte\n"
    (uncached *. 1e3) (cold *. 1e3) (warm *. 1e3) (cold /. warm) cold_alloc;
  { fe_uncached = uncached; fe_cold = cold; fe_warm = warm;
    fe_cold_alloc = cold_alloc }

let bench_gen ~json ~out () =
  header "Gen: pinned seed-42 scale corpus + differential harness";
  let cfg = Corpus.Gen.standard () in
  let t0 = Unix.gettimeofday () in
  let files = Corpus.Gen.generate cfg in
  let gen_wall = Unix.gettimeofday () -. t0 in
  let bytes =
    List.fold_left (fun acc (_, src) -> acc + String.length src) 0 files
  in
  let digest =
    Digest.to_hex (Digest.string (String.concat "\x00" (List.map snd files)))
  in
  Printf.printf "%s\n" (Corpus.Gen.describe cfg);
  Printf.printf "files %d  pus %d  bytes %d  digest %s  gen %.1f ms\n"
    (List.length files) (Corpus.Gen.pu_count cfg) bytes digest
    (gen_wall *. 1e3);
  let t0 = Unix.gettimeofday () in
  let m = Whirl.Lower.lower (Lang.Frontend.load ~files) in
  let result = analyze_module m in
  let analysis_wall = Unix.gettimeofday () -. t0 in
  let ctx =
    { Analyses.Analysis.ctx_module = m; Analyses.Analysis.ctx_result = result }
  in
  let bounds, _ = Analyses.Bounds.run ctx in
  let diff, _ = Analyses.Diffcheck.run ctx in
  let count (r : Analyses.Report.t) key =
    match List.assoc_opt key r.Analyses.Report.r_summary with
    | Some v -> v
    | None -> "0"
  in
  Printf.printf
    "analysis %.1f ms  sparse %s/%s proven (floor %g)  inspector entries %s\n"
    (analysis_wall *. 1e3)
    (count bounds "sparse_proven")
    (count bounds "sparse_accesses")
    (snd (bound_of "gen" "sparse_proven"))
    (count bounds "inspector_entries");
  Printf.printf
    "diffcheck: steps %s  oob %s  covered %s  uncovered %s  safe_faults %s  \
     ok %s\n"
    (count diff "steps") (count diff "oob_events") (count diff "covered")
    (count diff "uncovered") (count diff "safe_faults") (count diff "ok");
  let fe = bench_frontend files in
  (* summary values are JSON scalars in text form *)
  let value r key =
    let v = count r key in
    Result.value (Obs.Json.parse v) ~default:(Obs.Json.Str v)
  in
  write_record ~json ~out "gen"
    [ ("schema_version", int Analyses.Report.schema_version);
      ("gen", Obj [
        ("config", Str (Corpus.Gen.describe cfg));
        ("seed", int cfg.Corpus.Gen.g_seed);
        ("files", int (List.length files));
        ("pus", int (Corpus.Gen.pu_count cfg));
        ("bytes", int bytes);
        ("digest", Str digest);
        ("gen_wall_s", fixed 6 gen_wall);
        ("analysis_wall_s", fixed 6 analysis_wall);
        ("sparse_accesses", value bounds "sparse_accesses");
        ("sparse_proven", value bounds "sparse_proven");
        recorded_bound "gen" "sparse_proven";
        ("inspector_entries", value bounds "inspector_entries");
        ("frontend_uncached_wall_s", fixed 6 fe.fe_uncached);
        ("frontend_cold_wall_s", fixed 6 fe.fe_cold);
        ("frontend_warm_edit_wall_s", fixed 6 fe.fe_warm);
        ("frontend_speedup", fixed 2 (fe.fe_cold /. fe.fe_warm));
        recorded_bound "gen" "frontend_speedup";
        ("frontend_cold_alloc_words_per_byte", fixed 2 fe.fe_cold_alloc);
        recorded_bound "gen" "frontend_cold_alloc_words_per_byte";
        ("diffcheck", Obj (List.map (fun k -> (k, value diff k))
          [ "steps"; "oob_events"; "covered"; "uncovered"; "safe_faults";
            "ok" ])) ]) ]

(* ------------------------------------------------------------------ *)
(* Regions: the production join (interned systems, n-way unions, the
   implies memo) against the reference-eliminator join fold, on the joins
   the NAS LU summary construction actually performs *)

let bench_regions ~json ~out () =
  header "Regions: interned terms, n-way joins, implies memo (NAS LU)";
  let files = Corpus.Nas_lu.files () in
  let lower () = Whirl.Lower.lower (Lang.Frontend.load ~files) in
  let res = analyze_module (lower ()) in
  (* join workload: every (procedure, array, mode) bucket of harvested
     access regions with at least two members — the groups the summary
     layer unions (and collapses past the per-slot cap) *)
  let groups : (string * int * Regions.Mode.t, Regions.Region.t list) Hashtbl.t
      =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (pu, (info : Ipa.Collect.pu_info)) ->
      List.iter
        (fun (a : Ipa.Collect.access) ->
          let k = (pu, a.Ipa.Collect.ac_st, a.Ipa.Collect.ac_mode) in
          match Hashtbl.find_opt groups k with
          | None ->
            order := k :: !order;
            Hashtbl.replace groups k [ a.Ipa.Collect.ac_region ]
          | Some rs ->
            Hashtbl.replace groups k (a.Ipa.Collect.ac_region :: rs))
        info.Ipa.Collect.p_accesses)
    res.Ipa.Analyze.r_infos;
  let buckets =
    List.filter_map
      (fun k ->
        match Hashtbl.find groups k with
        | [] | [ _ ] -> None
        | rs -> Some (List.rev rs))
      (List.rev !order)
  in
  let total_regions = List.fold_left (fun a rs -> a + List.length rs) 0 buckets in
  let passes = 5 in
  (* both legs run [passes] times after one cache clear, timed by the same
     wall clock: the oracle fold has no memo to warm, the production join
     keeps its implies memo across passes as the summary layer does *)
  let timed f =
    Linear.System.clear_cache ();
    let (r, wall), d =
      measured (fun () ->
          let t0 = Unix.gettimeofday () in
          let r = ref [] in
          for _ = 1 to passes do
            r := f ()
          done;
          (!r, Unix.gettimeofday () -. t0))
    in
    let count = Obs.Metrics.value d in
    ( r,
      wall,
      Linear.Solver_stats.of_metrics d,
      ( count "regions.union.calls",
        count "regions.union_many.calls",
        count "regions.union.implies_saved" ) )
  in
  let sys (r : Regions.Region.t) = r.Regions.Region.sys in
  let oracle_joins () =
    List.map
      (fun rs ->
        List.fold_left
          (fun acc r -> Regions.Region.Reference.join_sys acc (sys r))
          (sys (List.hd rs)) (List.tl rs))
      buckets
  in
  let many_joins () =
    List.map (fun rs -> sys (Regions.Region.union_many rs)) buckets
  in
  let ref_res, ref_wall, _, _ = timed oracle_joins in
  let learned_res, learned_wall, d_learned, (unions, many, saved) =
    timed many_joins
  in
  (* the production join trades nothing for speed: it must build the very
     same systems (interning makes that one id comparison each) *)
  let identical = List.for_all2 Linear.System.equal ref_res learned_res in
  let open Linear.Solver_stats in
  let speedup = ref_wall /. Float.max 1e-9 learned_wall in
  let speedup_ok =
    speedup >= snd (bound_of "regions" "join.implies_speedup")
  in
  Printf.printf
    "join workload: %d buckets, %d regions, %d passes\n"
    (List.length buckets) total_regions passes;
  Printf.printf "reference fold (Region.Reference.join_sys): %.4fs\n" ref_wall;
  Printf.printf
    "learned union_many: %d implies queries (%d memo hits, %d \
     saved by interned ids; %d bound hits, %d elims), %.3f ms implies wall, \
     %.4fs => %.1fx%s\n"
    d_learned.implies_queries d_learned.implies_memo_hits
    saved d_learned.ctx_bound_hits d_learned.ctx_elims
    (float_of_int d_learned.implies_wall_ns /. 1e6)
    learned_wall speedup
    (if speedup_ok then "" else "  (below the floor!)");
  Printf.printf "union_approx calls: %d via %d union_many; results %s\n" unions
    many
    (if identical then "identical" else "DIFFER");
  (* ---- end-to-end: whole NAS LU analysis, production vs the oracle *)
  let run_analysis ~oracle =
    Linear.System.clear_cache ();
    let wall, d =
      measured (fun () ->
          let t0 = Unix.gettimeofday () in
          let analyze () = ignore (analyze_module (lower ())) in
          if oracle then Linear.System.Reference.run analyze else analyze ();
          Unix.gettimeofday () -. t0)
    in
    (wall, Linear.Solver_stats.of_metrics d)
  in
  let e2e_ref_wall, e2e_ref = run_analysis ~oracle:true in
  let e2e_learned_wall, e2e_learned = run_analysis ~oracle:false in
  Printf.printf
    "end-to-end: reference %d implies queries %.3f ms (%.4fs), learned %d \
     queries %.3f ms (%.4fs)\n"
    e2e_ref.implies_queries
    (float_of_int e2e_ref.implies_wall_ns /. 1e6)
    e2e_ref_wall e2e_learned.implies_queries
    (float_of_int e2e_learned.implies_wall_ns /. 1e6)
    e2e_learned_wall;
  (* ---- interner effectiveness (process lifetime: tables never drop) *)
  let lifetime = Obs.Metrics.value (Obs.Metrics.snapshot ()) in
  let intern name =
    let h = lifetime (Printf.sprintf "linear.intern.%s.hits" name) in
    let m = lifetime (Printf.sprintf "linear.intern.%s.misses" name) in
    let rate = float_of_int h /. float_of_int (max 1 (h + m)) in
    (h, m, rate)
  in
  let eh, em, er = intern "expr" in
  let ch, cm, cr = intern "constr" in
  let sh, sm, sr = intern "system" in
  Printf.printf
    "intern hit rates: expr %.1f%% (%d/%d), constr %.1f%% (%d/%d), system \
     %.1f%% (%d/%d)\n"
    (100. *. er) eh (eh + em) (100. *. cr) ch (ch + cm) (100. *. sr) sh
    (sh + sm);
  let intern_rate (h, m, r) =
    Obs.Json.Obj [ ("hits", int h); ("misses", int m); ("hit_rate", fixed 4 r) ]
  in
  write_record ~json ~out "regions"
    [ ("corpus", Str "nas-lu");
      ("regions", Obj [
        ("join", Obj [
          ("buckets", int (List.length buckets));
          ("regions", int total_regions);
          ("passes", int passes);
          ("reference", Obj [ ("wall_s", fixed 6 ref_wall) ]);
          ("learned", Obj ([
            ("implies_queries", int d_learned.implies_queries);
            ("implies_memo_hits", int d_learned.implies_memo_hits);
            ("implies_wall_ns", int d_learned.implies_wall_ns);
            ("implies_saved", int saved);
            ("union_calls", int unions);
            ("union_many_calls", int many) ]
            @ ctx_counts d_learned @ [ ("wall_s", fixed 6 learned_wall) ]));
          ("implies_speedup", fixed 2 speedup);
          recorded_bound "regions" "join.implies_speedup";
          ("speedup_ok", Bool speedup_ok);
          ("identical", Bool identical) ]);
        ("end_to_end", Obj [
          ("reference", Obj [
            ("implies_queries", int e2e_ref.implies_queries);
            ("implies_wall_ns", int e2e_ref.implies_wall_ns);
            ("analysis_wall_s", fixed 6 e2e_ref_wall) ]);
          ("learned", Obj [
            ("implies_queries", int e2e_learned.implies_queries);
            ("implies_memo_hits", int e2e_learned.implies_memo_hits);
            ("implies_wall_ns", int e2e_learned.implies_wall_ns);
            ("analysis_wall_s", fixed 6 e2e_learned_wall) ]) ]);
        ("intern", Obj [
          ("expr", intern_rate (eh, em, er));
          ("constr", intern_rate (ch, cm, cr));
          ("system", intern_rate (sh, sm, sr)) ]) ]) ]

(* ------------------------------------------------------------------ *)
(* check-json: validate emitted JSON files.  A BENCH record is gated here
   against [gates]; every other format goes to its one reader, beside its
   writer (reports, diagnostics, metrics, traces, ledger records).  The
   shape is detected from the top-level member. *)

let check_fail = Obs.Json.malformed

(* the member at [path] (split at dots) under [v]; in a list, a
   [key=value] segment selects the element whose [key] member is [value] *)
let rec lookup v = function
  | [] -> Some v
  | seg :: rest ->
    let next =
      match (v, String.split_on_char '=' seg) with
      | Obs.Json.List l, [ key; value ] ->
        let want = Some (Obs.Json.Str value) in
        List.find_opt (fun e -> Obs.Json.member key e = want) l
      | _ -> Obs.Json.member seg v
    in
    Option.bind next (fun n -> lookup n rest)

(* Every [gates] row of [bench] against its [section]; a bound recorded in
   the file must equal the table's.  Returns the checked floors and
   ceilings for the OK line. *)
let check_gates bench section =
  List.filter_map
    (fun (b, path, bound) ->
      let member path = lookup section (String.split_on_char '.' path) in
      let num path =
        match Option.bind (member path) Obs.Json.to_float with
        | Some v -> v
        | None -> check_fail "%s.%s missing or not a number" bench path
      in
      let limit v holds rel broken =
        let x = num path and recorded = path ^ suffix bound in
        if not (holds x v) then
          check_fail "%s.%s %g %s %g" bench path x broken v;
        if member recorded <> None && num recorded <> v then
          check_fail "%s.%s %g differs from the gate table's %g" bench recorded
            (num recorded) v;
        Some (Printf.sprintf "%s %g %s %g" path x rel v)
      in
      if b <> bench then None
      else
        match bound with
        | Present ->
          ignore (num path);
          None
        | True -> (
          match member path with
          | Some (Obs.Json.Bool true) -> None
          | _ -> check_fail "%s.%s is not true" bench path)
        | Floor v -> limit v ( >= ) ">=" "below floor"
        | Ceiling v -> limit v ( <= ) "<=" "above ceiling")
    gates

(* every BENCH record names the host and sources it was measured on *)
let check_stamp top =
  match Obs.Json.member "stamp" top with
  | Some (Obs.Json.Obj _ as st) ->
    (match Option.bind (Obs.Json.member "nproc" st) Obs.Json.to_int with
    | Some n when n > 0 -> ()
    | _ -> check_fail "stamp.nproc missing or not positive");
    List.iter
      (fun field ->
        match Option.bind (Obs.Json.member field st) Obs.Json.to_string with
        | Some v when v <> "" -> ()
        | _ -> check_fail "stamp.%s missing or empty" field)
      [ "ocaml"; "commit" ]
  | _ -> check_fail "bench record without stamp"

(* the cross-field invariants of a bounds record, on every corpus entry *)
let check_bounds_invariants top doc =
  Obs.Json.require_version ~what:"bounds file" Analyses.Report.schema_version
    top;
  match Option.bind (Obs.Json.member "corpora" doc) Obs.Json.to_list with
  | None | Some [] -> check_fail "bounds.corpora missing or empty"
  | Some entries ->
    List.iter
      (fun entry ->
        let corpus =
          match
            Option.bind (Obs.Json.member "corpus" entry) Obs.Json.to_string
          with
          | Some s -> s
          | None -> check_fail "bounds corpus entry without corpus name"
        in
        let num field =
          match Option.bind (Obs.Json.member field entry) Obs.Json.to_int with
          | Some n when n >= 0 -> n
          | Some n -> check_fail "bounds %s: %s is negative (%d)" corpus field n
          | None -> check_fail "bounds %s: missing %s" corpus field
        in
        let accesses = num "accesses" in
        let safe = num "safe" and unsafe = num "unsafe" and maybe = num "maybe" in
        if safe + unsafe + maybe <> accesses then
          check_fail "bounds %s: safe+unsafe+maybe = %d, accesses = %d" corpus
            (safe + unsafe + maybe) accesses;
        if num "checks_eliminated" <> safe then
          check_fail "bounds %s: checks_eliminated disagrees with safe" corpus;
        if num "residual_checks" <> maybe then
          check_fail "bounds %s: residual_checks disagrees with maybe" corpus;
        let sparse = num "sparse_accesses" and proven = num "sparse_proven" in
        if proven > sparse then
          check_fail "bounds %s: sparse_proven %d exceeds sparse_accesses %d"
            corpus proven sparse;
        if num "inspector_entries" <> maybe then
          check_fail
            "bounds %s: inspector_entries disagrees with maybe (every \
             undecidable access gets an inspector entry)"
            corpus;
        ignore (num "implies_queries");
        ignore (num "implies_wall_ns"))
      entries

(* the cross-field invariants of a gen record *)
let check_gen_invariants top doc =
  Obs.Json.require_version ~what:"gen file" Analyses.Report.schema_version top;
  (match Option.bind (Obs.Json.member "digest" doc) Obs.Json.to_string with
  | Some d when String.length d = 32 -> ()
  | _ -> check_fail "gen.digest missing or not an md5 hex string");
  let dnum field =
    match Option.bind (lookup doc [ "diffcheck"; field ]) Obs.Json.to_int with
    | Some n -> n
    | None -> check_fail "gen.diffcheck.%s missing" field
  in
  if dnum "covered" <> dnum "oob_events" then
    check_fail "gen.diffcheck: covered disagrees with oob_events"

(* A BENCH record: its stamp, the [gates] rows of the bench it names, and
   the cross-field invariants no single row states. *)
let check_bench path top =
  check_stamp top;
  let bench =
    match Obs.Json.member "bench" top with
    | Some (Obs.Json.Str b) when List.exists (fun (b', _, _) -> b' = b) gates
      ->
      b
    | _ -> check_fail "\"bench\" names no known bench"
  in
  let section =
    match Obs.Json.member bench top with
    | Some (Obs.Json.Obj _ as doc) -> doc
    | _ -> check_fail "%s record without a %S object" bench bench
  in
  (match bench with
  | "bounds" -> check_bounds_invariants top section
  | "gen" -> check_gen_invariants top section
  | _ -> ());
  Printf.printf "check-json: %s OK (%s; %s)\n" path bench
    (String.concat ", " (check_gates bench section))

(* one run-ledger record (a line of <cache-dir>/ledger/<run_id>.jsonl) *)
let check_ledger_record idx record =
  match
    Pipeline.check_ledger_record (Printf.sprintf "ledger record %d" idx) record
  with
  | Ok () -> ()
  | Error e -> check_fail "%s" e

let check_ledger_jsonl path raw =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' raw)
  in
  if lines = [] then check_fail "empty ledger file";
  List.iteri
    (fun i line ->
      match Obs.Json.parse line with
      | Error e -> check_fail "ledger record %d: %s" (i + 1) e
      | Ok record -> check_ledger_record (i + 1) record)
    lines;
  Printf.printf "check-json: %s OK (ledger, %d record(s))\n" path
    (List.length lines)

(* [true] when the file passes; a failure prints one line on stderr *)
let check_json_file path =
  let ok what = Printf.printf "check-json: %s OK (%s)\n" path what in
  let read = function Ok v -> v | Error e -> check_fail "%s" e in
  let count kind items r =
    ok (Printf.sprintf "%s, %d %s" kind (List.length (read r)) items)
  in
  (* stdout first, so the lines keep file order in one captured stream *)
  let fail msg =
    flush stdout;
    prerr_endline ("check-json: " ^ msg);
    false
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> fail (Printf.sprintf "cannot read %s: %s" path e)
  | raw -> (
    try
      (if Filename.check_suffix path ".jsonl" then check_ledger_jsonl path raw
       else
         match read (Obs.Json.parse raw) with
         | Obs.Json.Obj members as v -> (
           let has k = List.mem_assoc k members in
           if has "run_id" then begin
             (* a ledger record extracted to a plain .json file *)
             check_ledger_record 1 v;
             ok "ledger, 1 record(s)"
           end
           else if has "bench" then check_bench path v
           else if has "traceEvents" then
             count "trace" "spans" (Obs.Trace.parse raw)
           else if has "metrics" then
             count "metrics" "instruments"
               (Obs.Metrics.of_json (List.assoc "metrics" members))
           else if has "reports" then
             count "reports" "analyses" (Analyses.Report.parse raw)
           else if has "diagnostics" then
             count "diagnostics" "entries" (Fault.Diag.parse raw)
           else
             check_fail
               "no recognized top-level member \
                (bench/traceEvents/metrics/reports/diagnostics)")
         | _ -> check_fail "top-level value is not an object");
      true
    with Obs.Json.Malformed msg -> fail (Printf.sprintf "%s in %s" msg path))

(* ------------------------------------------------------------------ *)
(* obs: tracing/metrics overhead on the NAS LU pipeline *)

let bench_obs ~json ~out () =
  header "Obs: tracing and metrics overhead (NAS LU)";
  let files = Corpus.Nas_lu.files () in
  let lower () = Whirl.Lower.lower (Lang.Frontend.load ~files) in
  ignore (analyze_module (lower ()));
  let best f =
    let t = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      t := min !t (Unix.gettimeofday () -. t0)
    done;
    !t
  in
  let analysis () = analyze_module (lower ()) in
  let disabled = best analysis in
  Obs.Span.set_enabled true;
  Obs.Metrics.set_enabled true;
  Obs.Trace.clear ();
  let enabled = best analysis in
  Obs.Span.set_enabled false;
  Obs.Metrics.set_enabled false;
  let span_count =
    match Obs.Trace.parse (Obs.Trace.export ()) with
    | Ok spans -> List.length spans
    | Error _ -> 0
  in
  Obs.Trace.clear ();
  (* micro: the cost of one disabled Span.with_ — the only thing the
     instrumentation adds to hot paths when observability is off *)
  let iters = 10_000_000 in
  let sink = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    Obs.Span.with_ ~name:"noop" (fun () -> sink := !sink + i)
  done;
  let per_call_ns = (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9 in
  let overhead = (enabled -. disabled) /. disabled in
  Printf.printf "analysis wall: disabled %.4fs, enabled %.4fs (%+.2f%%)\n"
    disabled enabled (100. *. overhead);
  Printf.printf "trace recorded %d spans per run\n" span_count;
  Printf.printf "disabled Span.with_: %.2f ns/call (%d calls)\n" per_call_ns
    iters;
  (* the disabled-path bound: even if every recorded span were on the hot
     path, the disabled checks cost a vanishing fraction of the analysis *)
  let disabled_cost =
    float_of_int span_count *. per_call_ns /. 1e9 /. disabled
  in
  let ceiling = snd (bound_of "obs" "disabled_cost_fraction") in
  let cost_ok = disabled_cost <= ceiling in
  Printf.printf
    "disabled-path cost bound: %.4f%% of analysis wall (<= %g%% %s)\n"
    (100. *. disabled_cost) (100. *. ceiling)
    (if cost_ok then "OK" else "VIOLATED");
  write_record ~json ~out "obs"
    [ ("corpus", Str "nas-lu");
      ("obs", Obj [
        ("disabled_wall_s", fixed 6 disabled);
        ("enabled_wall_s", fixed 6 enabled);
        ("enabled_overhead", fixed 6 overhead);
        ("spans_per_run", int span_count);
        ("disabled_span_ns", fixed 3 per_call_ns);
        ("disabled_cost_fraction", fixed 8 disabled_cost);
        ("disabled_cost_ok", Bool cost_ok) ]) ]

(* ------------------------------------------------------------------ *)
(* Bechamel timings of the analysis kernels *)

let timing_suite () =
  header "Timing (Bechamel): analysis kernels";
  let open Bechamel in
  let fm_system () =
    let open Linear in
    let i = Var.fresh ~name:"i" Var.Ivar and j = Var.fresh ~name:"j" Var.Ivar in
    let d0 = Var.subscript 0 and d1 = Var.subscript 1 in
    System.of_list
      [
        Constr.eq (Expr.var d0) (Expr.add (Expr.var i) (Expr.var j));
        Constr.eq (Expr.var d1) (Expr.sub (Expr.var i) (Expr.var j));
        Constr.ge (Expr.var i) (Expr.of_int 1);
        Constr.le (Expr.var i) (Expr.of_int 100);
        Constr.ge (Expr.var j) (Expr.of_int 1);
        Constr.le (Expr.var j) (Expr.of_int 100);
      ]
  in
  let test_fm =
    Test.make ~name:"fourier-motzkin projection"
      (Staged.stage (fun () ->
           let s = fm_system () in
           let vars =
             Linear.Var.Set.elements
               (Linear.Var.Set.filter Linear.Var.is_ivar (Linear.System.vars s))
           in
           ignore (Linear.System.eliminate_all vars s)))
  in
  let test_region =
    Test.make ~name:"region of strided reference"
      (Staged.stage (fun () ->
           let i = Linear.Var.fresh ~name:"i" Linear.Var.Ivar in
           let loop =
             {
               Regions.Region.lc_var = i;
               lc_lo = Regions.Affine.Affine (Linear.Expr.of_int 2);
               lc_hi = Regions.Affine.Affine (Linear.Expr.of_int 199);
               lc_step = Some 3;
             }
           in
           ignore
             (Regions.Region.of_subscripts ~extents:[ Some 256 ] ~loops:[ loop ]
                [ Regions.Affine.Affine (Linear.Expr.var i) ])))
  in
  let test_matrix =
    Test.make ~name:"matrix.c full pipeline"
      (Staged.stage (fun () ->
           ignore (analyze_sources [ Corpus.Small.matrix_c ])))
  in
  let test_lu =
    Test.make ~name:"NAS LU class A full pipeline"
      (Staged.stage (fun () ->
           ignore (analyze_sources (Corpus.Nas_lu.files ()))))
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let results = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        instance results
    in
    ols
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "%-32s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-32s (no estimate)\n" name)
        results)
    [ test_fm; test_region; test_matrix; test_lu ]

(* ------------------------------------------------------------------ *)

let () =
  let rec parse (json, out, sections) = function
    | [] -> (json, out, List.rev sections)
    | "--json" :: rest -> parse (true, out, sections) rest
    | "--out" :: path :: rest -> parse (json, Some path, sections) rest
    | s :: rest -> parse (json, out, s :: sections) rest
  in
  let json, out, sections =
    parse (false, None, []) (List.tl (Array.to_list Sys.argv))
  in
  (* the sections that write a BENCH record; --out names one file *)
  let records = [ "engine"; "solver"; "bounds"; "gen"; "regions"; "obs" ] in
  let writing = List.filter (fun s -> List.mem s records) sections in
  match sections with
  | "check-json" :: files ->
    (* every file is checked; any failure fails the whole call *)
    let failed = List.filter (fun f -> not (check_json_file f)) files in
    if failed <> [] then exit 1
  | _ when out <> None && List.length writing <> 1 ->
    prerr_endline
      "bench: --out needs exactly one of the sections engine, solver, \
       bounds, gen, regions, obs";
    exit 2
  | _ ->
    let only name = List.mem name sections in
    let all = sections = [] in
    if all || only "fig1" then bench_fig1 ();
    if all || only "fig2" then bench_fig2 ();
    if all || only "fig8" then bench_fig8 ();
    if all || only "fig9" then bench_fig9 ();
    if all || only "fig11" then bench_fig11 ();
    if all || only "tab2" || only "fig12" then bench_tab2 ();
    if all || only "tab3" || only "fig14" then bench_tab3 ();
    if all || only "tab4" then bench_tab4 ();
    if all || only "case1" then bench_case1 ();
    if all || only "apps" then bench_apps ();
    if all || only "ablation" then bench_ablation ();
    if all || only "pgas" then bench_pgas ();
    if all || only "misscurve" then bench_misscurve ();
    if all || only "locality" then bench_locality ();
    if all || only "engine" then bench_engine ~json ~out ();
    if all || only "solver" then bench_solver ~json ~out ();
    if all || only "bounds" then bench_bounds ~json ~out ();
    if all || only "gen" then bench_gen ~json ~out ();
    if all || only "regions" then bench_regions ~json ~out ();
    if all || only "obs" then bench_obs ~json ~out ();
    if all || only "timing" then timing_suite ()
