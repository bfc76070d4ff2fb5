(* Dragon viewer: table rendering, find, browsing, graphs, advisor. *)

let project_of files =
  let result = Engine.analyze_sources files in
  ( result,
    Dragon.Project.make ~name:"t" ~dgn:result.Ipa.Analyze.r_dgn
      ~rows:result.Ipa.Analyze.r_rows ~sources:files () )

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let test_table_render () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  let out = Dragon.Table.render p in
  Alcotest.(check bool) "global heading" true (contains out "== @ (global arrays) ==");
  Alcotest.(check bool) "has aarr" true (contains out "aarr");
  Alcotest.(check bool) "has density column" true (contains out "Dens")

let test_table_find_marks () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  let out = Dragon.Table.render ~find:"aarr" p in
  Alcotest.(check bool) "marks matches" true (contains out "* aarr");
  Alcotest.(check bool) "reports count" true (contains out "find \"aarr\": 5 row(s)")

let test_table_find_color () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  let options = { Dragon.Table.default_options with Dragon.Table.color = true } in
  let out = Dragon.Table.render ~options ~find:"aarr" p in
  Alcotest.(check bool) "green escapes" true (contains out "\027[32m")

let test_table_scope_filter () =
  let _, p = project_of [ Corpus.Small.fig1_f ] in
  let out = Dragon.Table.render ~scope:"p1" p in
  Alcotest.(check bool) "p1 shown" true (contains out "== p1 ==");
  Alcotest.(check bool) "p2 hidden" false (contains out "== p2 ==")

let test_scopes_order () =
  let _, p = project_of [ Corpus.Small.fig1_f ] in
  match Dragon.Project.scopes p with
  | [] -> Alcotest.fail "no scopes"
  | scopes ->
    (* "@" comes first when present; fig1.f has no global arrays *)
    Alcotest.(check bool) "no stray @ later" true
      (match scopes with
      | "@" :: rest -> not (List.mem "@" rest)
      | rest -> not (List.mem "@" rest))

let test_grep () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  let hits = Dragon.Browse.grep p "aarr[i]" in
  Alcotest.(check bool) "substring hits" true (List.length hits >= 2);
  let word_hits = Dragon.Browse.grep_array p "i" in
  (* word match: 'i' appears as an identifier but not inside 'printf' *)
  Alcotest.(check bool) "word boundaries respected" true
    (List.for_all
       (fun h -> not (contains h.Dragon.Browse.h_text "sprintf"))
       word_hits)

let test_show_excerpt () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  match Dragon.Browse.show p ~file:"matrix.c" 8 with
  | None -> Alcotest.fail "expected excerpt"
  | Some s ->
    Alcotest.(check bool) "marks the line" true (contains s ">   8 |");
    Alcotest.(check bool) "has context" true (contains s "   6 |")

let test_locate_row () =
  let result, p = project_of [ Corpus.Small.matrix_c ] in
  let row =
    List.find
      (fun (r : Rgnfile.Row.t) ->
        r.Rgnfile.Row.array = "aarr" && r.Rgnfile.Row.mode = "DEF")
      result.Ipa.Analyze.r_rows
  in
  match Dragon.Browse.locate_row p row with
  | None -> Alcotest.fail "expected to locate the row"
  | Some excerpt -> Alcotest.(check bool) "shows aarr" true (contains excerpt "aarr")

let test_callgraph_views () =
  let result, _ = project_of [ Corpus.Small.fig1_f ] in
  let p =
    Dragon.Project.make ~name:"t" ~dgn:result.Ipa.Analyze.r_dgn
      ~rows:result.Ipa.Analyze.r_rows ~sources:[ Corpus.Small.fig1_f ] ()
  in
  let ascii = Dragon.Graphs.callgraph_ascii p in
  Alcotest.(check bool) "root first" true (contains ascii "- fig1");
  Alcotest.(check bool) "footer count" true (contains ascii "4 procedures");
  let dot = Dragon.Graphs.callgraph_dot p in
  Alcotest.(check bool) "dot edge" true (contains dot "\"add\" -> \"p1\"")

let test_cfg_views () =
  let result = Engine.analyze_sources [ Corpus.Small.fig1_f ] in
  let blocks =
    List.concat_map
      (fun (proc, cfg) ->
        Array.to_list cfg.Cfg.blocks
        |> List.map (fun (b : Cfg.block) ->
               {
                 Rgnfile.Files.cb_proc = proc;
                 cb_id = b.Cfg.id;
                 cb_label = b.Cfg.label;
                 cb_succs = b.Cfg.succs;
               }))
      result.Ipa.Analyze.r_cfgs
  in
  let p =
    Dragon.Project.make ~name:"t" ~dgn:result.Ipa.Analyze.r_dgn
      ~rows:result.Ipa.Analyze.r_rows ~cfg:blocks ()
  in
  Alcotest.(check bool) "p1 has a cfg" true
    (List.mem "p1" (Dragon.Graphs.cfg_procs p));
  (match Dragon.Graphs.cfg_ascii p ~proc:"p1" with
  | Some s -> Alcotest.(check bool) "loop head present" true (contains s "loop-head")
  | None -> Alcotest.fail "no ascii cfg");
  match Dragon.Graphs.cfg_dot p ~proc:"p1" with
  | Some s -> Alcotest.(check bool) "dot nodes" true (contains s "digraph")
  | None -> Alcotest.fail "no dot cfg"

let test_advisor_matrix () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  let resizes = Dragon.Advisor.resize_suggestions p in
  (match resizes with
  | [ r ] ->
    Alcotest.(check string) "aarr" "aarr" r.Dragon.Advisor.rs_array;
    Alcotest.(check (list (pair int int))) "accessed span" [ (0, 8) ]
      r.Dragon.Advisor.rs_accessed;
    Alcotest.(check int) "saving (20-9)*4" 44 r.Dragon.Advisor.rs_saving_bytes
  | _ -> Alcotest.fail "expected exactly one resize suggestion");
  let copyins = Dragon.Advisor.copyin_suggestions p in
  (match copyins with
  | [ c ] ->
    Alcotest.(check string) "C pragma"
      "#pragma acc region for copyin(aarr[0:7])" c.Dragon.Advisor.ci_directive
  | _ -> Alcotest.fail "expected one copyin suggestion");
  let fusions = Dragon.Advisor.fusion_suggestions p in
  Alcotest.(check bool) "two identical USE regions fuse" true
    (List.exists
       (fun f -> f.Dragon.Advisor.fu_array = "aarr"
                 && List.length f.Dragon.Advisor.fu_lines >= 2)
       fusions)

let test_hotspots_sorted () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  let hs = Dragon.Advisor.hotspots p in
  Alcotest.(check bool) "nonempty" true (hs <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Dragon.Advisor.hs_density >= b.Dragon.Advisor.hs_density && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "descending density" true (sorted hs)

let test_advisor_render () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  let out = Dragon.Advisor.render p in
  Alcotest.(check bool) "has all four sections" true
    (contains out "Hotspot" && contains out "resize candidates"
    && contains out "Sub-array offload" && contains out "Mergeable loops")

let test_table_sort_density () =
  let _, p = project_of (Corpus.Nas_lu.files ()) in
  let options =
    { Dragon.Table.default_options with Dragon.Table.sort = Dragon.Table.By_density }
  in
  let out = Dragon.Table.render ~options ~scope:"@" p in
  (* the density-900 class row must come first in the @ scope *)
  let lines = String.split_on_char '
' out in
  (match lines with
  | _heading :: _header :: first :: _ ->
    Alcotest.(check bool) "class first" true (contains first "class")
  | _ -> Alcotest.fail "expected rows");
  (* mode filter *)
  let only_def =
    {
      Dragon.Table.default_options with
      Dragon.Table.modes = Some [ "DEF" ];
    }
  in
  let out = Dragon.Table.render ~options:only_def ~scope:"@" p in
  Alcotest.(check bool) "no USE rows" false (contains out " USE ")

let test_html_report () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  let html = Dragon.Html.render p in
  Alcotest.(check bool) "doctype" true (contains html "<!DOCTYPE html>");
  Alcotest.(check bool) "table rows carry array names" true
    (contains html "data-array=\"aarr\"");
  Alcotest.(check bool) "find box" true (contains html "id=\"find\"");
  Alcotest.(check bool) "call graph embedded" true (contains html "- main");
  Alcotest.(check bool) "advisor embedded" true (contains html "Hotspot");
  Alcotest.(check bool) "source line anchors" true
    (contains html "id=\"matrix-8\"");
  (* escaping: no raw source < or > survive into HTML text *)
  let _, p2 =
    project_of
      [ ("esc.c", "int a[4];
int main() { if (1 < 2) { a[0] = 1; } return 0; }
") ]
  in
  let html2 = Dragon.Html.render p2 in
  Alcotest.(check bool) "less-than escaped" true (contains html2 "&lt;")

let test_repl () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  let st = Dragon.Repl.start p in
  let out cmd =
    match Dragon.Repl.eval st cmd with
    | `Output s -> s
    | `Quit -> Alcotest.failf "unexpected quit on %S" cmd
  in
  Alcotest.(check bool) "scopes lists @" true (contains (out "scopes") "@");
  Alcotest.(check bool) "table shows aarr" true (contains (out "table @") "aarr");
  Alcotest.(check bool) "find counts" true
    (contains (out "find aarr") "5 row(s)");
  Alcotest.(check bool) "grep hits" true (contains (out "grep aarr[i]") "hit(s)");
  Alcotest.(check bool) "locate shows source" true
    (contains (out "locate aarr") "aarr[i]");
  Alcotest.(check bool) "callgraph" true (contains (out "callgraph") "- main");
  Alcotest.(check bool) "advise" true (contains (out "advise") "Hotspot");
  Alcotest.(check bool) "sort feedback" true
    (contains (out "sort density") "sorting by density");
  Alcotest.(check bool) "bad sort usage" true (contains (out "sort nope") "usage");
  Alcotest.(check bool) "unknown command" true
    (contains (out "frobnicate") "unknown command");
  Alcotest.(check bool) "help" true (contains (out "help") "commands:");
  (match Dragon.Repl.eval st "quit" with
  | `Quit -> ()
  | `Output _ -> Alcotest.fail "quit should quit")

let test_diff () =
  let rows files wopt =
    let m = Whirl.Lower.lower (Lang.Frontend.load ~files) in
    let m = if wopt then fst (Wopt.Const_prop.run m) else m in
    (Engine.analyze m).Ipa.Analyze.r_rows
  in
  let before = rows [ Corpus.Small.stride_f ] false in
  let after = rows [ Corpus.Small.stride_f ] true in
  let d = Dragon.Diff.diff before after in
  Alcotest.(check bool) "not empty" false (Dragon.Diff.is_empty d);
  (* the symbolic rows become constant ones *)
  Alcotest.(check int) "two rows sharpened" 2 (List.length d.Dragon.Diff.added);
  Alcotest.(check int) "two rows gone" 2 (List.length d.Dragon.Diff.removed);
  let out = Dragon.Diff.render d in
  Alcotest.(check bool) "renders + and -" true
    (contains out "+ stride b" && contains out "- stride b");
  (* identical inputs: empty diff *)
  let d0 = Dragon.Diff.diff before before in
  Alcotest.(check bool) "self-diff empty" true (Dragon.Diff.is_empty d0);
  Alcotest.(check string) "self-diff message" "no differences\n"
    (Dragon.Diff.render d0);
  (* recounted: drop one USE site manually *)
  let fewer =
    List.filter
      (fun (r : Rgnfile.Row.t) ->
        not (r.Rgnfile.Row.mode = "USE" && r.Rgnfile.Row.array = "idx"))
      before
    |> List.map (fun (r : Rgnfile.Row.t) ->
           if r.Rgnfile.Row.array = "b" && r.Rgnfile.Row.mode = "DEF" then
             { r with Rgnfile.Row.references = r.Rgnfile.Row.references + 1 }
           else r)
  in
  let d2 = Dragon.Diff.diff before fewer in
  Alcotest.(check bool) "counts changed reported" true
    (d2.Dragon.Diff.recounted <> [])

let test_coverage () =
  let _, p = project_of [ Corpus.Small.matrix_c ] in
  (match Dragon.Advisor.coverage p with
  | [ c ] ->
    Alcotest.(check string) "aarr" "aarr" c.Dragon.Advisor.cv_array;
    (* accesses touch 0..8 = 9 of 20 elements *)
    Alcotest.(check int) "accessed" 9 c.Dragon.Advisor.cv_accessed;
    Alcotest.(check int) "declared" 20 c.Dragon.Advisor.cv_declared;
    Alcotest.(check int) "45 percent" 45 c.Dragon.Advisor.cv_percent
  | l -> Alcotest.failf "expected one coverage entry, got %d" (List.length l));
  (* disjoint intervals: union must not merge across gaps *)
  let gap_src =
    ( "gap.f",
      {|      program gap
      integer a(1:100)
      integer i
      do i = 1, 10
        a(i) = i
      end do
      do i = 51, 60
        a(i) = i
      end do
      end
|} )
  in
  let _, p2 = project_of [ gap_src ] in
  match Dragon.Advisor.coverage p2 with
  | [ c ] ->
    Alcotest.(check int) "two islands of 10" 20 c.Dragon.Advisor.cv_accessed;
    Alcotest.(check int) "20 percent" 20 c.Dragon.Advisor.cv_percent
  | l -> Alcotest.failf "expected one entry, got %d" (List.length l)

(* dragon grep searches the project's source copies; a project written
   from a .B file has none, and grep says so instead of finding nothing *)
let test_grep_without_sources () =
  Test_cli.require_binaries ();
  let dir = Test_cli.temp_dir () in
  Fun.protect ~finally:(fun () ->
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
  @@ fun () ->
  let path = Filename.concat dir in
  let uhc args =
    match Test_cli.run_capture (Test_cli.exe "uhc" ^ " " ^ args) with
    | Unix.WEXITED 0, _ -> ()
    | _, out -> Alcotest.failf "uhc %s failed:\n%s" args out
  in
  uhc
    (Printf.sprintf "--corpus matrix --emit-whirl %s -o %s"
       (Filename.quote (path "m.B"))
       (Filename.quote (path "src")));
  uhc
    (Printf.sprintf "%s -o %s"
       (Filename.quote (path "m.B"))
       (Filename.quote (path "b")));
  let grep project_dir =
    Test_cli.run_capture
      (Printf.sprintf "%s grep -d %s -p project aarr" (Test_cli.exe "dragon")
         (Filename.quote (path project_dir)))
  in
  let status, out = grep "src" in
  Alcotest.(check bool) "with sources: exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "with sources: hits" true (contains out "5 hit(s)");
  let status, out = grep "b" in
  Alcotest.(check bool) "without sources: exit 1" true
    (status = Unix.WEXITED 1);
  Alcotest.(check bool) "names the missing source" true
    (contains out "missing: matrix.c");
  Alcotest.(check bool) "prints no hit count" false (contains out "hit(s)")

let suite =
  [
    Alcotest.test_case "coverage" `Quick test_coverage;
    Alcotest.test_case "diff" `Quick test_diff;
    Alcotest.test_case "repl" `Quick test_repl;
    Alcotest.test_case "html report" `Quick test_html_report;
    Alcotest.test_case "table sort + filter" `Quick test_table_sort_density;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table find marks" `Quick test_table_find_marks;
    Alcotest.test_case "table find color" `Quick test_table_find_color;
    Alcotest.test_case "table scope filter" `Quick test_table_scope_filter;
    Alcotest.test_case "scopes order" `Quick test_scopes_order;
    Alcotest.test_case "grep" `Quick test_grep;
    Alcotest.test_case "grep without source copies" `Quick
      test_grep_without_sources;
    Alcotest.test_case "show excerpt" `Quick test_show_excerpt;
    Alcotest.test_case "locate row" `Quick test_locate_row;
    Alcotest.test_case "callgraph views" `Quick test_callgraph_views;
    Alcotest.test_case "cfg views" `Quick test_cfg_views;
    Alcotest.test_case "advisor on matrix.c" `Quick test_advisor_matrix;
    Alcotest.test_case "hotspots sorted" `Quick test_hotspots_sorted;
    Alcotest.test_case "advisor render" `Quick test_advisor_render;
  ]
