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
            pu.Whirl.Ir.pu_body)
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
(* Engine: parallel fan-out and the incremental summary cache.  With
   --json it also records the store numbers in BENCH_engine.json: the
   cold and warm in-process engine wall on LU and gen-small, the files
   one cold gen-small run publishes, and the collect phase of a cold
   gen-small run with how often its access shapes repeat. *)

(* the host and sources a BENCH record was measured on *)
let bench_stamp () =
  let commit =
    match Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null" with
    | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")
    | exception Unix.Unix_error _ -> "unknown"
  in
  (Engine_pool.recommended (), Sys.ocaml_version, commit)

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
    "cold gen-small collect: %.4fs, %.2f regions requested per distinct shape\n"
    gs_collect shape_reuse;
  print_endline
    "warm runs skip collection and summary propagation entirely;\n\
     outputs are byte-identical in every mode (checked by test_engine)";
  if json || out <> None then begin
    let path = Option.value out ~default:"BENCH_engine.json" in
    let nproc, ocaml, commit = bench_stamp () in
    let b = Buffer.create 1024 in
    let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    bpf "{\n";
    bpf "  \"bench\": \"engine\",\n";
    bpf "  \"stamp\": { \"nproc\": %d, \"ocaml\": \"%s\", \"commit\": \"%s\" },\n"
      nproc ocaml commit;
    bpf "  \"engine\": {\n";
    bpf "    \"lu_cold_wall_s\": %.6f,\n" lu_cold;
    bpf "    \"lu_warm_wall_s\": %.6f,\n" lu_warm;
    bpf "    \"gen_small_cold_wall_s\": %.6f,\n" gs_cold;
    bpf "    \"gen_small_warm_wall_s\": %.6f,\n" gs_warm;
    bpf "    \"warm_speedup\": %.2f,\n" warm_speedup;
    bpf "    \"warm_speedup_floor\": %.2f,\n" 1.5;
    bpf "    \"cold_files\": %d,\n" cold_files;
    bpf "    \"gen_small_cold_collect_s\": %.6f,\n" gs_collect;
    bpf "    \"shape_reuse\": %.2f,\n" shape_reuse;
    bpf "    \"shape_reuse_floor\": %.2f\n" 2.0;
    bpf "  }\n";
    bpf "}\n";
    Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b);
    Printf.printf "wrote %s\n" path
  end

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
     cut hits, %d bound hits, %d proj hits, %d elims, %d reorders\n"
    d_learned.box_refutations d_learned.syntactic_hits d_learned.fm_runs
    d_learned.ctx_contexts d_learned.ctx_cut_hits d_learned.ctx_bound_hits
    d_learned.ctx_proj_hits d_learned.ctx_elims
    d_learned.ctx_activity_reorders;
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
    \  implies:  reference %.4fs, learned %.4fs (%d cut hits, %d bound hits, \
     %d memo hits)\n\
    \  project:  %.4fs (exact eliminator, context-memoized)\n"
    (List.length systems) passes feas_reference feas_cold small_runs feas_memo
    impl_reference impl_learned d_impl_learned.ctx_cut_hits
    d_impl_learned.ctx_bound_hits d_impl_learned.implies_memo_hits proj;
  (* ---- machine-readable record *)
  if json || out <> None then begin
    let path = Option.value out ~default:"BENCH_solver.json" in
    let b = Buffer.create 2048 in
    let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    bpf "{\n";
    bpf "  \"bench\": \"%s\",\n" (Obs.Json.escape "solver");
    bpf "  \"corpus\": \"nas-lu\",\n";
    bpf "  \"solver\": {\n";
    bpf "    \"end_to_end\": {\n";
    bpf "      \"reference\": {\n";
    bpf "        \"feasible_queries\": %d,\n" d_ref.queries;
    bpf "        \"solver_wall_ns\": %d,\n" ref_ns;
    bpf "        \"analysis_wall_s\": %.6f\n" wall_ref;
    bpf "      },\n";
    bpf "      \"learned\": {\n";
    bpf "        \"feasible_queries\": %d,\n" d_learned.queries;
    bpf "        \"feasible_wall_ns\": %d,\n" d_learned.wall_fast_ns;
    bpf "        \"implies_queries\": %d,\n" d_learned.implies_queries;
    bpf "        \"implies_wall_ns\": %d,\n" d_learned.implies_wall_ns;
    bpf "        \"solver_wall_ns\": %d,\n" learned_ns;
    bpf "        \"analysis_wall_s\": %.6f,\n" wall_learned;
    bpf "        \"box_refutations\": %d,\n" d_learned.box_refutations;
    bpf "        \"syntactic_hits\": %d,\n" d_learned.syntactic_hits;
    bpf "        \"fm_runs\": %d,\n" d_learned.fm_runs;
    bpf "        \"small_runs\": %d,\n" d_learned.small_runs;
    bpf "        \"ctx_contexts\": %d,\n" d_learned.ctx_contexts;
    bpf "        \"ctx_cut_hits\": %d,\n" d_learned.ctx_cut_hits;
    bpf "        \"ctx_bound_hits\": %d,\n" d_learned.ctx_bound_hits;
    bpf "        \"ctx_proj_hits\": %d,\n" d_learned.ctx_proj_hits;
    bpf "        \"ctx_elims\": %d,\n" d_learned.ctx_elims;
    bpf "        \"ctx_activity_reorders\": %d\n"
      d_learned.ctx_activity_reorders;
    bpf "      },\n";
    bpf "      \"feasible_speedup\": %.2f,\n" speedup;
    bpf "      \"feasible_speedup_floor\": %.2f\n" 2.0;
    bpf "    },\n";
    bpf "    \"micro\": {\n";
    bpf "      \"systems\": %d,\n" (List.length systems);
    bpf "      \"passes\": %d,\n" passes;
    bpf "      \"feasible_reference_s\": %.6f,\n" feas_reference;
    bpf "      \"feasible_cold_s\": %.6f,\n" feas_cold;
    bpf "      \"feasible_memo_s\": %.6f,\n" feas_memo;
    bpf "      \"small_runs\": %d,\n" small_runs;
    bpf "      \"implies_reference_s\": %.6f,\n" impl_reference;
    bpf "      \"implies_learned_s\": %.6f,\n" impl_learned;
    bpf "      \"project_s\": %.6f\n" proj;
    bpf "    }\n";
    bpf "  }\n";
    bpf "}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents b);
    close_out oc;
    Printf.printf "wrote %s\n" path
  end

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
  (* the regression floor for property-refined sparse accesses proven safe
     on the gen corpus; recorded into the JSON next to the measured value
     so check-json can gate on it *)
  let sparse_proven_floor = 3000 in
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
  if json || out <> None then begin
    let path = Option.value out ~default:"BENCH_bounds.json" in
    let b = Buffer.create 2048 in
    let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    bpf "{\n";
    bpf "  \"bench\": \"%s\",\n" (Obs.Json.escape "bounds");
    bpf "  \"schema_version\": %d,\n" Analyses.Report.schema_version;
    bpf "  \"bounds\": {\n";
    bpf "    \"corpora\": [\n";
    let n = List.length per_corpus in
    List.iteri
      (fun i (name, count, wall, (d : Linear.Solver_stats.t)) ->
        bpf "      {\n";
        bpf "        \"corpus\": \"%s\",\n" (Obs.Json.escape name);
        bpf "        \"accesses\": %d,\n" (count "accesses");
        bpf "        \"safe\": %d,\n" (count "safe");
        bpf "        \"unsafe\": %d,\n" (count "unsafe");
        bpf "        \"maybe\": %d,\n" (count "maybe");
        bpf "        \"checks_eliminated\": %d,\n" (count "checks_eliminated");
        bpf "        \"residual_checks\": %d,\n" (count "residual_checks");
        bpf "        \"sparse_accesses\": %d,\n" (count "sparse_accesses");
        bpf "        \"sparse_proven\": %d,\n" (count "sparse_proven");
        bpf "        \"inspector_entries\": %d,\n" (count "inspector_entries");
        if name = "gen" then
          bpf "        \"sparse_proven_floor\": %d,\n" sparse_proven_floor;
        bpf "        \"implies_queries\": %d,\n"
          d.Linear.Solver_stats.implies_queries;
        bpf "        \"implies_wall_ns\": %d,\n"
          d.Linear.Solver_stats.implies_wall_ns;
        bpf "        \"analysis_wall_s\": %.6f\n" wall;
        bpf "      }%s\n" (if i = n - 1 then "" else ",")
      )
      per_corpus;
    bpf "    ]\n";
    bpf "  }\n";
    bpf "}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents b);
    close_out oc;
    Printf.printf "wrote %s\n" path
  end

(* ------------------------------------------------------------------ *)
(* Gen: the seeded corpus generator — config, determinism digest, scale,
   and the differential harness (static verdicts vs one interpreted run)
   on the pinned seed-42 standard workload *)

(* The frontend with per-file artifacts on the gen corpus: the uncached
   composition, a cold cached run (parse, check, lower, write every
   artifact) and a warm run after a one-file edit (one file recomputed,
   the rest read back).  Medians of 3 cold runs (each on an empty
   directory) and 5 warm runs (each after a new edit). *)
type frontend_walls = { fe_uncached : float; fe_cold : float; fe_warm : float }

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
  rm ();
  Printf.printf
    "frontend: uncached %.1f ms  cold (artifacts written) %.1f ms  warm after \
     a one-file edit %.1f ms  (%.1fx cold/warm)\n"
    (uncached *. 1e3) (cold *. 1e3) (warm *. 1e3) (cold /. warm);
  { fe_uncached = uncached; fe_cold = cold; fe_warm = warm }

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
  let sparse_proven_floor = 3000 in
  Printf.printf
    "analysis %.1f ms  sparse %s/%s proven (floor %d)  inspector entries %s\n"
    (analysis_wall *. 1e3)
    (count bounds "sparse_proven")
    (count bounds "sparse_accesses")
    sparse_proven_floor
    (count bounds "inspector_entries");
  Printf.printf
    "diffcheck: steps %s  oob %s  covered %s  uncovered %s  safe_faults %s  \
     ok %s\n"
    (count diff "steps") (count diff "oob_events") (count diff "covered")
    (count diff "uncovered") (count diff "safe_faults") (count diff "ok");
  let fe = bench_frontend files in
  if json || out <> None then begin
    let path = Option.value out ~default:"BENCH_gen.json" in
    let b = Buffer.create 2048 in
    let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    bpf "{\n";
    bpf "  \"bench\": \"%s\",\n" (Obs.Json.escape "gen");
    bpf "  \"schema_version\": %d,\n" Analyses.Report.schema_version;
    bpf "  \"gen\": {\n";
    bpf "    \"config\": \"%s\",\n" (Obs.Json.escape (Corpus.Gen.describe cfg));
    bpf "    \"seed\": %d,\n" cfg.Corpus.Gen.g_seed;
    bpf "    \"files\": %d,\n" (List.length files);
    bpf "    \"pus\": %d,\n" (Corpus.Gen.pu_count cfg);
    bpf "    \"bytes\": %d,\n" bytes;
    bpf "    \"digest\": \"%s\",\n" (Obs.Json.escape digest);
    bpf "    \"gen_wall_s\": %.6f,\n" gen_wall;
    bpf "    \"analysis_wall_s\": %.6f,\n" analysis_wall;
    bpf "    \"sparse_accesses\": %s,\n" (count bounds "sparse_accesses");
    bpf "    \"sparse_proven\": %s,\n" (count bounds "sparse_proven");
    bpf "    \"sparse_proven_floor\": %d,\n" sparse_proven_floor;
    bpf "    \"inspector_entries\": %s,\n" (count bounds "inspector_entries");
    bpf "    \"frontend_uncached_wall_s\": %.6f,\n" fe.fe_uncached;
    bpf "    \"frontend_cold_wall_s\": %.6f,\n" fe.fe_cold;
    bpf "    \"frontend_warm_edit_wall_s\": %.6f,\n" fe.fe_warm;
    bpf "    \"frontend_speedup\": %.2f,\n" (fe.fe_cold /. fe.fe_warm);
    bpf "    \"frontend_speedup_floor\": %.2f,\n" 2.0;
    bpf "    \"diffcheck\": {\n";
    bpf "      \"steps\": %s,\n" (count diff "steps");
    bpf "      \"oob_events\": %s,\n" (count diff "oob_events");
    bpf "      \"covered\": %s,\n" (count diff "covered");
    bpf "      \"uncovered\": %s,\n" (count diff "uncovered");
    bpf "      \"safe_faults\": %s,\n" (count diff "safe_faults");
    bpf "      \"ok\": %s\n" (count diff "ok");
    bpf "    }\n";
    bpf "  }\n";
    bpf "}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents b);
    close_out oc;
    Printf.printf "wrote %s\n" path
  end

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
  Printf.printf
    "join workload: %d buckets, %d regions, %d passes\n"
    (List.length buckets) total_regions passes;
  Printf.printf "reference fold (Region.Reference.join_sys): %.4fs\n" ref_wall;
  Printf.printf
    "learned union_many: %d implies queries (%d memo hits, %d \
     saved by interned ids; %d cut hits, %d bound hits, %d elims, %d \
     reorders), %.3f ms implies wall, %.4fs => %.1fx%s\n"
    d_learned.implies_queries d_learned.implies_memo_hits
    saved d_learned.ctx_cut_hits
    d_learned.ctx_bound_hits d_learned.ctx_elims
    d_learned.ctx_activity_reorders
    (float_of_int d_learned.implies_wall_ns /. 1e6)
    learned_wall speedup
    (if speedup >= 2. then "" else "  (< 2x!)");
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
  if json || out <> None then begin
    let path = Option.value out ~default:"BENCH_regions.json" in
    let b = Buffer.create 2048 in
    let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    bpf "{\n";
    bpf "  \"bench\": \"%s\",\n" (Obs.Json.escape "regions");
    bpf "  \"corpus\": \"nas-lu\",\n";
    bpf "  \"regions\": {\n";
    bpf "    \"join\": {\n";
    bpf "      \"buckets\": %d,\n" (List.length buckets);
    bpf "      \"regions\": %d,\n" total_regions;
    bpf "      \"passes\": %d,\n" passes;
    bpf "      \"reference\": {\n";
    bpf "        \"wall_s\": %.6f\n" ref_wall;
    bpf "      },\n";
    bpf "      \"learned\": {\n";
    bpf "        \"implies_queries\": %d,\n" d_learned.implies_queries;
    bpf "        \"implies_memo_hits\": %d,\n" d_learned.implies_memo_hits;
    bpf "        \"implies_wall_ns\": %d,\n" d_learned.implies_wall_ns;
    bpf "        \"implies_saved\": %d,\n" saved;
    bpf "        \"union_calls\": %d,\n" unions;
    bpf "        \"union_many_calls\": %d,\n" many;
    bpf "        \"ctx_contexts\": %d,\n" d_learned.ctx_contexts;
    bpf "        \"ctx_cut_hits\": %d,\n" d_learned.ctx_cut_hits;
    bpf "        \"ctx_bound_hits\": %d,\n" d_learned.ctx_bound_hits;
    bpf "        \"ctx_proj_hits\": %d,\n" d_learned.ctx_proj_hits;
    bpf "        \"ctx_elims\": %d,\n" d_learned.ctx_elims;
    bpf "        \"ctx_activity_reorders\": %d,\n"
      d_learned.ctx_activity_reorders;
    bpf "        \"wall_s\": %.6f\n" learned_wall;
    bpf "      },\n";
    bpf "      \"implies_speedup\": %.2f,\n" speedup;
    bpf "      \"implies_speedup_floor\": %.2f,\n" 2.0;
    bpf "      \"speedup_ok\": %b,\n" (speedup >= 2.);
    bpf "      \"identical\": %b\n" identical;
    bpf "    },\n";
    bpf "    \"end_to_end\": {\n";
    bpf "      \"reference\": {\n";
    bpf "        \"implies_queries\": %d,\n" e2e_ref.implies_queries;
    bpf "        \"implies_wall_ns\": %d,\n" e2e_ref.implies_wall_ns;
    bpf "        \"analysis_wall_s\": %.6f\n" e2e_ref_wall;
    bpf "      },\n";
    bpf "      \"learned\": {\n";
    bpf "        \"implies_queries\": %d,\n" e2e_learned.implies_queries;
    bpf "        \"implies_memo_hits\": %d,\n" e2e_learned.implies_memo_hits;
    bpf "        \"implies_wall_ns\": %d,\n" e2e_learned.implies_wall_ns;
    bpf "        \"analysis_wall_s\": %.6f\n" e2e_learned_wall;
    bpf "      }\n";
    bpf "    },\n";
    bpf "    \"intern\": {\n";
    bpf "      \"expr\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": %.4f },\n"
      eh em er;
    bpf
      "      \"constr\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": %.4f \
       },\n"
      ch cm cr;
    bpf "      \"system\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": %.4f }\n"
      sh sm sr;
    bpf "    }\n";
    bpf "  }\n";
    bpf "}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents b);
    close_out oc;
    Printf.printf "wrote %s\n" path
  end

(* ------------------------------------------------------------------ *)
(* check-json: validate emitted JSON files (bench records, uhc --trace
   traces, uhc --metrics dumps) without external deps.  The shape is
   detected from the top-level key; traces additionally go through
   [Obs.Trace.parse], which enforces monotone per-track timestamps and
   matched, properly nested begin/end pairs. *)

exception Check_fail of string

let check_fail fmt = Printf.ksprintf (fun msg -> raise (Check_fail msg)) fmt

(* a regression gate: the recorded speedup must stay at or above the floor
   recorded next to it (the floor is part of the schema, so an old record
   without one fails the check rather than silently passing) *)
let check_gate obj ~where name =
  let num field =
    match Option.bind (Obs.Json.member field obj) Obs.Json.to_float with
    | Some v -> v
    | None -> check_fail "%s.%s missing" where field
  in
  let v = num name in
  let floor = num (name ^ "_floor") in
  if v < floor then
    check_fail "%s.%s %.2f regressed below floor %.2f" where name v floor;
  (v, floor)

let check_solver_json path doc =
  match Obs.Json.member "end_to_end" doc, Obs.Json.member "micro" doc with
  | Some (Obs.Json.Obj _ as e2e), Some (Obs.Json.Obj _ as micro) ->
    (match Obs.Json.member "learned" e2e with
    | Some (Obs.Json.Obj _ as l) ->
      List.iter
        (fun field ->
          match Option.bind (Obs.Json.member field l) Obs.Json.to_float with
          | Some _ -> ()
          | None -> check_fail "solver.end_to_end.learned.%s missing" field)
        [
          "feasible_wall_ns"; "implies_wall_ns"; "solver_wall_ns";
          "small_runs"; "ctx_contexts";
          "ctx_cut_hits"; "ctx_bound_hits"; "ctx_proj_hits"; "ctx_elims";
          "ctx_activity_reorders";
        ]
    | _ -> check_fail "solver.end_to_end.learned missing");
    (match Option.bind (Obs.Json.member "implies_learned_s" micro) Obs.Json.to_float with
    | Some _ -> ()
    | None -> check_fail "solver.micro.implies_learned_s missing");
    let speedup, floor =
      check_gate e2e ~where:"solver.end_to_end" "feasible_speedup"
    in
    Printf.printf
      "check-json: %s OK (solver section; feasible_speedup %.2f >= floor \
       %.2f)\n"
      path speedup floor
  | _ -> check_fail "solver.end_to_end / solver.micro missing"

let check_regions_json path doc =
  match
    ( Obs.Json.member "join" doc,
      Obs.Json.member "end_to_end" doc,
      Obs.Json.member "intern" doc )
  with
  | Some (Obs.Json.Obj _ as join), Some (Obs.Json.Obj _), Some (Obs.Json.Obj _)
    ->
    (match Obs.Json.member "identical" join with
    | Some (Obs.Json.Bool true) -> ()
    | _ -> check_fail "regions.join.identical is not true");
    (match Obs.Json.member "learned" join with
    | Some (Obs.Json.Obj _ as l) ->
      List.iter
        (fun field ->
          match Option.bind (Obs.Json.member field l) Obs.Json.to_float with
          | Some _ -> ()
          | None -> check_fail "regions.join.learned.%s missing" field)
        [
          "implies_queries"; "implies_memo_hits"; "implies_wall_ns"; "ctx_contexts"; "ctx_cut_hits"; "ctx_bound_hits";
          "ctx_elims"; "ctx_activity_reorders";
        ]
    | _ -> check_fail "regions.join.learned missing");
    let sp, spf = check_gate join ~where:"regions.join" "implies_speedup" in
    Printf.printf
      "check-json: %s OK (regions; implies_speedup %.2f >= floor %.2f)\n"
      path sp spf
  | _ -> check_fail "regions.join / regions.end_to_end / regions.intern missing"

let check_trace_json path raw =
  match Obs.Trace.parse raw with
  | Error e -> check_fail "%s" e
  | Ok spans ->
    List.iter
      (fun (sp : Obs.Trace.span) ->
        if sp.Obs.Trace.sp_dur_us < 0. then
          check_fail "span %S has negative duration" sp.Obs.Trace.sp_name)
      spans;
    Printf.printf "check-json: %s OK (trace, %d spans)\n" path
      (List.length spans)

let check_metrics_json path entries =
  let kinds = [ "counter"; "histogram" ] in
  let last_name = ref "" in
  let n = ref 0 in
  List.iter
    (fun entry ->
      incr n;
      let str field =
        match Option.bind (Obs.Json.member field entry) Obs.Json.to_string with
        | Some s -> s
        | None -> check_fail "metric without %S string" field
      in
      let num field =
        match Option.bind (Obs.Json.member field entry) Obs.Json.to_float with
        | Some v -> v
        | None -> check_fail "metric %S lacks number %S" (str "name") field
      in
      let name = str "name" in
      if name <= !last_name then
        check_fail "metric names not sorted/unique at %S (after %S)" name
          !last_name;
      last_name := name;
      let kind = str "kind" in
      if not (List.mem kind kinds) then
        check_fail "metric %S has unknown kind %S" name kind;
      if kind = "histogram" then begin
        let count = num "count" in
        ignore (num "sum");
        List.iter (fun p -> ignore (num p)) [ "p50"; "p95"; "p99" ];
        let buckets =
          match
            Option.bind (Obs.Json.member "buckets" entry) Obs.Json.to_list
          with
          | Some l -> l
          | None -> check_fail "histogram %S lacks buckets" name
        in
        let bucket_total =
          List.fold_left
            (fun acc b ->
              let bnum f =
                match Option.bind (Obs.Json.member f b) Obs.Json.to_float with
                | Some v -> v
                | None -> check_fail "histogram %S bucket lacks %S" name f
              in
              let lo = bnum "lo" and hi = bnum "hi" in
              if hi >= 0. && hi < lo then
                check_fail "histogram %S bucket hi < lo" name;
              acc +. bnum "count")
            0. buckets
        in
        if bucket_total <> count then
          check_fail "histogram %S bucket counts sum to %g, count %g" name
            bucket_total count
      end
      else ignore (num "value"))
    entries;
  Printf.printf "check-json: %s OK (metrics, %d instruments)\n" path !n

let check_schema_version ~what ~expected doc =
  match Option.bind (Obs.Json.member "schema_version" doc) Obs.Json.to_int with
  | None -> check_fail "%s file without schema_version" what
  | Some v when v <> expected ->
    check_fail "%s file has unknown schema_version %d (expected %d)" what v
      expected
  | Some _ -> ()

let check_bounds_json path top doc =
  check_schema_version ~what:"bounds" ~expected:Analyses.Report.schema_version
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
        (* the gen corpus records a floor next to the measured value *)
        if Obs.Json.member "sparse_proven_floor" entry <> None then
          ignore (check_gate entry ~where:("bounds." ^ corpus) "sparse_proven");
        ignore (num "implies_queries");
        ignore (num "implies_wall_ns"))
      entries;
    Printf.printf "check-json: %s OK (bounds, %d corpora)\n" path
      (List.length entries)

let check_gen_json path top doc =
  check_schema_version ~what:"gen" ~expected:Analyses.Report.schema_version top;
  let num field =
    match Option.bind (Obs.Json.member field doc) Obs.Json.to_int with
    | Some n -> n
    | None -> check_fail "gen.%s missing" field
  in
  if num "files" < 200 then check_fail "gen.files below the 200-file scale floor";
  if num "pus" < 2000 then check_fail "gen.pus below the 2000-PU scale floor";
  (match Option.bind (Obs.Json.member "digest" doc) Obs.Json.to_string with
  | Some d when String.length d = 32 -> ()
  | _ -> check_fail "gen.digest missing or not an md5 hex string");
  let proven, floor = check_gate doc ~where:"gen" "sparse_proven" in
  let fe_speedup, fe_floor = check_gate doc ~where:"gen" "frontend_speedup" in
  let diff =
    match Obs.Json.member "diffcheck" doc with
    | Some (Obs.Json.Obj _ as d) -> d
    | _ -> check_fail "gen.diffcheck missing"
  in
  let dnum field =
    match Option.bind (Obs.Json.member field diff) Obs.Json.to_int with
    | Some n -> n
    | None -> check_fail "gen.diffcheck.%s missing" field
  in
  if dnum "safe_faults" <> 0 then
    check_fail "gen.diffcheck.safe_faults: a proven-safe access faulted";
  if dnum "uncovered" <> 0 then
    check_fail "gen.diffcheck.uncovered: a runtime fault has no inspector row";
  if dnum "covered" <> dnum "oob_events" then
    check_fail "gen.diffcheck: covered disagrees with oob_events";
  (match Obs.Json.member "ok" diff with
  | Some (Obs.Json.Bool true) -> ()
  | _ -> check_fail "gen.diffcheck.ok is not true");
  Printf.printf
    "check-json: %s OK (gen; sparse_proven %.0f >= floor %.0f, \
     frontend_speedup %.2f >= floor %.2f, diffcheck clean over %d oob \
     events)\n"
    path proven floor fe_speedup fe_floor (dnum "oob_events")

let check_engine_json path doc =
  let num field =
    match Option.bind (Obs.Json.member field doc) Obs.Json.to_float with
    | Some v -> v
    | None -> check_fail "engine.%s missing" field
  in
  List.iter
    (fun f -> ignore (num f))
    [
      "lu_cold_wall_s"; "lu_warm_wall_s"; "gen_small_cold_wall_s";
      "gen_small_warm_wall_s"; "gen_small_cold_collect_s";
    ];
  (* one pack segment per producer: the cached frontend and the engine *)
  let files = num "cold_files" in
  if files > 2. then
    check_fail "engine.cold_files %.0f above 2 (one segment per producer)" files;
  let speedup, floor = check_gate doc ~where:"engine" "warm_speedup" in
  (* collect builds each distinct access shape once per run *)
  let reuse, reuse_floor = check_gate doc ~where:"engine" "shape_reuse" in
  Printf.printf
    "check-json: %s OK (engine; cold_files %.0f <= 2, warm_speedup %.2f >= \
     floor %.2f, shape_reuse %.2f >= floor %.2f)\n"
    path files speedup floor reuse reuse_floor

let check_reports_json path top entries =
  check_schema_version ~what:"reports" ~expected:Analyses.Report.schema_version
    top;
  List.iter
    (fun report ->
      let analysis =
        match
          Option.bind (Obs.Json.member "analysis" report) Obs.Json.to_string
        with
        | Some s when s <> "" -> s
        | _ -> check_fail "report without analysis name"
      in
      (match Obs.Json.member "summary" report with
      | Some (Obs.Json.Obj kvs) ->
        List.iter
          (fun (k, v) ->
            match Obs.Json.to_string v with
            | Some _ -> ()
            | None ->
              check_fail "report %s: summary %S is not a string" analysis k)
          kvs
      | _ -> check_fail "report %s: missing summary object" analysis);
      let columns =
        match Option.bind (Obs.Json.member "columns" report) Obs.Json.to_list with
        | Some cs when cs <> [] -> cs
        | _ -> check_fail "report %s: missing columns" analysis
      in
      match Option.bind (Obs.Json.member "rows" report) Obs.Json.to_list with
      | None -> check_fail "report %s: missing rows" analysis
      | Some rows ->
        List.iteri
          (fun i row ->
            match Obs.Json.to_list row with
            | Some cells when List.length cells = List.length columns -> ()
            | Some cells ->
              check_fail "report %s: row %d has %d cells for %d columns"
                analysis i (List.length cells) (List.length columns)
            | None -> check_fail "report %s: row %d is not a list" analysis i)
          rows)
    entries;
  Printf.printf "check-json: %s OK (reports, %d analyses)\n" path
    (List.length entries)

let check_diagnostics_json path entries =
  let severities = [ "error"; "warning" ] in
  let n = ref 0 in
  List.iter
    (fun entry ->
      incr n;
      let str field =
        match Option.bind (Obs.Json.member field entry) Obs.Json.to_string with
        | Some s -> s
        | None -> check_fail "diagnostic %d without %S string" !n field
      in
      let site = str "site" in
      if site = "" then check_fail "diagnostic %d has empty site" !n;
      let severity = str "severity" in
      if not (List.mem severity severities) then
        check_fail "diagnostic %d (site %S) has unknown severity %S" !n site
          severity;
      if str "pu" = "" then
        check_fail "diagnostic %d (site %S) has empty pu" !n site;
      if str "action" = "" then
        check_fail "diagnostic %d (site %S) has empty recovery action" !n site;
      ignore (str "detail"))
    entries;
  Printf.printf "check-json: %s OK (diagnostics, %d entries)\n" path !n

(* One run-ledger record (a line of <cache-dir>/ledger/<run_id>.jsonl,
   written by Pipeline whenever --cache-dir is set). *)
let check_ledger_record idx record =
  let ctx = Printf.sprintf "ledger record %d" idx in
  let mem f = Obs.Json.member f record in
  let str f =
    match Option.bind (mem f) Obs.Json.to_string with
    | Some s -> s
    | None -> check_fail "%s lacks string %S" ctx f
  in
  let num f =
    match Option.bind (mem f) Obs.Json.to_float with
    | Some v -> v
    | None -> check_fail "%s lacks number %S" ctx f
  in
  let int_ f =
    match Option.bind (mem f) Obs.Json.to_int with
    | Some v -> v
    | None -> check_fail "%s lacks integer %S" ctx f
  in
  let list_ f =
    match Option.bind (mem f) Obs.Json.to_list with
    | Some l -> l
    | None -> check_fail "%s lacks list %S" ctx f
  in
  check_schema_version ~what:ctx ~expected:Obs.Ledger.schema_version record;
  if str "run_id" = "" then check_fail "%s has empty run_id" ctx;
  ignore (num "ts");
  if String.length (str "config_digest") <> 32 then
    check_fail "%s config_digest is not a 32-char hex digest" ctx;
  ignore (str "corpus_digest");
  ignore (int_ "exit_code");
  if num "wall_s" < 0. then check_fail "%s has negative wall_s" ctx;
  ignore (int_ "jobs");
  ignore (list_ "analyses");
  ignore (list_ "outputs");
  let analyzed =
    match mem "analyzed" with
    | Some (Obs.Json.Bool b) -> b
    | _ -> check_fail "%s lacks boolean \"analyzed\"" ctx
  in
  if analyzed then begin
    ignore (int_ "pus_analyzed");
    List.iter
      (fun p ->
        match Option.bind (Obs.Json.member "name" p) Obs.Json.to_string with
        | None -> check_fail "%s phase without name" ctx
        | Some name -> (
          match
            Option.bind (Obs.Json.member "wall_s" p) Obs.Json.to_float
          with
          | Some w when w >= 0. -> ()
          | _ -> check_fail "%s phase %S lacks wall_s" ctx name))
      (list_ "phases");
    let cache =
      match mem "cache" with
      | Some (Obs.Json.Obj _ as c) -> c
      | _ -> check_fail "%s lacks cache section" ctx
    in
    List.iter
      (fun f ->
        match Option.bind (Obs.Json.member f cache) Obs.Json.to_int with
        | Some n when n >= 0 -> ()
        | _ -> check_fail "%s cache section lacks counter %S" ctx f)
      [ "collect_hits"; "collect_misses"; "summary_hits"; "summary_misses" ];
    match mem "solver" with
    | Some (Obs.Json.Obj kvs) ->
      List.iter
        (fun (k, v) ->
          if Obs.Json.to_int v = None then
            check_fail "%s solver counter %S is not an integer" ctx k)
        kvs
    | _ -> check_fail "%s lacks solver section" ctx
  end;
  (match mem "verdicts" with
  | Some (Obs.Json.Obj _) -> ()
  | _ -> check_fail "%s lacks verdicts object" ctx);
  if int_ "diagnostics" < 0 then check_fail "%s negative diagnostics" ctx;
  ignore (list_ "metrics");
  List.iter
    (fun p ->
      List.iter
        (fun f -> ignore (Option.bind (Obs.Json.member f p) Obs.Json.to_string))
        [ "name"; "file"; "key1"; "key2" ];
      match Option.bind (Obs.Json.member "name" p) Obs.Json.to_string with
      | Some _ -> ()
      | None -> check_fail "%s pu entry without name" ctx)
    (list_ "pus")

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

let check_obs_json path doc =
  (match Obs.Json.member "disabled_cost_ok" doc with
  | Some (Obs.Json.Bool true) -> ()
  | _ -> check_fail "obs.disabled_cost_ok is not true");
  match Option.bind (Obs.Json.member "spans_per_run" doc) Obs.Json.to_int with
  | Some n when n > 0 ->
    Printf.printf "check-json: %s OK (obs; %d spans per run, disabled cost ok)\n"
      path n
  | _ -> check_fail "obs.spans_per_run is not a positive integer"

let check_json_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  try
    if Filename.check_suffix path ".jsonl" then check_ledger_jsonl path raw
    else
    match Obs.Json.parse raw with
    | Error e -> check_fail "%s" e
    | Ok v -> (
      match v with
      | Obs.Json.Obj _ when Obs.Json.member "run_id" v <> None ->
        (* a ledger record extracted to a plain .json file; the "solver"
           counter section would otherwise shadow the dispatch below *)
        check_ledger_record 1 v;
        Printf.printf "check-json: %s OK (ledger, 1 record(s))\n" path
      | Obs.Json.Obj _ -> (
        match
          ( Obs.Json.member "solver" v,
            Obs.Json.member "regions" v,
            Obs.Json.member "traceEvents" v,
            Obs.Json.member "metrics" v,
            Obs.Json.member "obs" v,
            Obs.Json.member "bounds" v,
            Obs.Json.member "reports" v,
            Obs.Json.member "diagnostics" v )
        with
        | Some (Obs.Json.Obj _ as doc), _, _, _, _, _, _, _ ->
          check_solver_json path doc
        | _, Some (Obs.Json.Obj _ as doc), _, _, _, _, _, _ ->
          check_regions_json path doc
        | _, _, Some (Obs.Json.List _), _, _, _, _, _ -> check_trace_json path raw
        | _, _, _, Some (Obs.Json.List entries), _, _, _, _ ->
          check_metrics_json path entries
        | _, _, _, _, Some (Obs.Json.Obj _ as doc), _, _, _ ->
          check_obs_json path doc
        | _, _, _, _, _, Some (Obs.Json.Obj _ as doc), _, _ ->
          check_bounds_json path v doc
        | _, _, _, _, _, _, Some (Obs.Json.List entries), _ ->
          check_reports_json path v entries
        | _, _, _, _, _, _, _, Some (Obs.Json.List entries) ->
          check_schema_version ~what:"diagnostics"
            ~expected:Fault.Diag.schema_version v;
          check_diagnostics_json path entries
        | _ -> (
          match (Obs.Json.member "gen" v, Obs.Json.member "engine" v) with
          | Some (Obs.Json.Obj _ as doc), _ -> check_gen_json path v doc
          | _, Some (Obs.Json.Obj _ as doc) -> check_engine_json path doc
          | _ ->
            check_fail
              "no recognized top-level section \
               (solver/regions/traceEvents/metrics/obs/bounds/gen/engine/\
               reports/diagnostics)"))
      | _ -> check_fail "top-level value is not an object")
  with Check_fail msg ->
    Printf.eprintf "check-json: %s in %s\n" msg path;
    exit 1

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
  (* the disabled-path bound the tentpole requires: even if every recorded
     span were on the hot path, the disabled checks cost a vanishing
     fraction of the analysis *)
  let disabled_cost =
    float_of_int span_count *. per_call_ns /. 1e9 /. disabled
  in
  Printf.printf "disabled-path cost bound: %.4f%% of analysis wall (< 2%% %s)\n"
    (100. *. disabled_cost)
    (if disabled_cost < 0.02 then "OK" else "VIOLATED");
  if json || out <> None then begin
    let path = Option.value out ~default:"BENCH_obs.json" in
    let b = Buffer.create 512 in
    let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    bpf "{\n";
    let nproc, ocaml, commit = bench_stamp () in
    bpf "  \"bench\": \"obs\",\n";
    bpf "  \"stamp\": { \"nproc\": %d, \"ocaml\": \"%s\", \"commit\": \"%s\" },\n"
      nproc ocaml commit;
    bpf "  \"corpus\": \"nas-lu\",\n";
    bpf "  \"obs\": {\n";
    bpf "    \"disabled_wall_s\": %.6f,\n" disabled;
    bpf "    \"enabled_wall_s\": %.6f,\n" enabled;
    bpf "    \"enabled_overhead\": %.6f,\n" overhead;
    bpf "    \"spans_per_run\": %d,\n" span_count;
    bpf "    \"disabled_span_ns\": %.3f,\n" per_call_ns;
    bpf "    \"disabled_cost_fraction\": %.8f,\n" disabled_cost;
    bpf "    \"disabled_cost_ok\": %b\n" (disabled_cost < 0.02);
    bpf "  }\n";
    bpf "}\n";
    let oc = open_out path in
    output_string oc (Buffer.contents b);
    close_out oc;
    Printf.printf "wrote %s\n" path
  end

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
  match sections with
  | "check-json" :: files -> List.iter check_json_file files
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
