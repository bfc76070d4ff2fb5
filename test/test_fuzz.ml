(* Randomized whole-pipeline soundness: generate random affine loop-nest
   programs, then check

   1. every element the interpreter actually touches lies inside some static
      region of the same (array, mode) — the core soundness claim of the
      region analysis;
   2. WOPT (constant propagation + DCE) preserves program output;
   3. the analysis is deterministic.

   The generator keeps subscripts within declared bounds by construction so
   runs never trap. *)

open QCheck2

(* ------------------------------------------------------------------ *)
(* Program generator *)

type sub = Svar of string * int  (* var + offset *) | Srev of string (* 21 - var *)

let sub_str = function
  | Svar (v, 0) -> v
  | Svar (v, c) -> Printf.sprintf "%s + %d" v c
  | Srev v -> Printf.sprintf "21 - %s" v

type stmt =
  | Loop of string * int * int * int * stmt list  (* var, lo, hi, step *)
  | Store1 of string * sub * string  (* arr, sub, rhs-ish *)
  | Store2 of sub * sub * string     (* c(s1, s2) = ... *)
  | Accum of string * sub            (* s = s + arr(sub) *)
  | Cond of string * int * stmt list

let rec render indent stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Loop (v, lo, hi, step, body) ->
    let head =
      if step = 1 then Printf.sprintf "%sdo %s = %d, %d\n" pad v lo hi
      else Printf.sprintf "%sdo %s = %d, %d, %d\n" pad v lo hi step
    in
    head
    ^ String.concat "" (List.map (render (indent + 2)) body)
    ^ Printf.sprintf "%send do\n" pad
  | Store1 (arr, sub, rhs) ->
    Printf.sprintf "%s%s(%s) = %s\n" pad arr (sub_str sub) rhs
  | Store2 (s1, s2, rhs) ->
    Printf.sprintf "%sc(%s, %s) = %s\n" pad (sub_str s1) (sub_str s2) rhs
  | Accum (arr, sub) ->
    Printf.sprintf "%ss = s + %s(%s)\n" pad arr (sub_str sub)
  | Cond (v, k, body) ->
    Printf.sprintf "%sif (mod(%s, %d) .eq. 0) then\n" pad v (k + 1)
    ^ String.concat "" (List.map (render (indent + 2)) body)
    ^ Printf.sprintf "%send if\n" pad

let program stmts =
  "      program fuzz\n" ^ "      integer a(1:24), b(1:24), c(1:24, 1:24)\n"
  ^ "      integer s, i, j, k\n" ^ "      s = 0\n"
  ^ String.concat "" (List.map (render 6) stmts)
  ^ "      print *, s\n" ^ "      end\n"

(* subscripts valid for any loop var ranging within [1, 20] *)
let gen_sub vars =
  Gen.(
    let* v = oneofl vars in
    oneof
      [
        (let* c = int_range 0 4 in
         return (Svar (v, c)));
        return (Srev v);
      ])

let gen_rhs vars =
  Gen.(
    oneof
      [
        map string_of_int (int_range 0 9);
        return "s";
        (let* v = oneofl vars in
         return v);
        (let* arr = oneofl [ "a"; "b" ] in
         let* s = gen_sub vars in
         return (Printf.sprintf "%s(%s) + 1" arr (sub_str s)));
      ])

(* NOTE: QCheck2's [oneofl] raises on an empty list at generator
   construction time, so sub-generators that need loop variables are only
   built when [vars] is non-empty. *)
let rec gen_stmt depth vars =
  Gen.(
    let unused =
      List.filter (fun v -> not (List.mem v vars)) [ "i"; "j"; "k" ]
    in
    let loop_gen () =
      let* v = oneofl unused in
      let* lo = int_range 1 4 in
      let* len = int_range 0 12 in
      let* step = oneofl [ 1; 1; 2; 3 ] in
      let hi = min 20 (lo + len) in
      let* body = list_size (int_range 1 3) (gen_stmt (depth - 1) (v :: vars)) in
      return (Loop (v, lo, hi, step, body))
    in
    if vars = [] then loop_gen ()
    else
      let leaf =
        oneof
          [
            (let* arr = oneofl [ "a"; "b" ] in
             let* s = gen_sub vars in
             let* rhs = gen_rhs vars in
             return (Store1 (arr, s, rhs)));
            (let* s1 = gen_sub vars in
             let* s2 = gen_sub vars in
             let* rhs = gen_rhs vars in
             return (Store2 (s1, s2, rhs)));
            (let* arr = oneofl [ "a"; "b" ] in
             let* s = gen_sub vars in
             return (Accum (arr, s)));
          ]
      in
      if depth = 0 || unused = [] then leaf
      else
        let cond_gen =
          let* v = oneofl vars in
          let* k = int_range 1 3 in
          let* body = list_size (int_range 1 2) (gen_stmt (depth - 1) vars) in
          return (Cond (v, k, body))
        in
        frequency [ (2, leaf); (3, loop_gen ()); (1, cond_gen) ])

let gen_program =
  Gen.(
    let* top = list_size (int_range 1 4) (gen_stmt 2 []) in
    (* top-level statements must not reference loop vars: wrap free leaves in
       a loop when they mention vars.  Easier: only allow loops at top. *)
    let top =
      List.map
        (function
          | Loop _ as l -> l
          | other -> Loop ("i", 1, 8, 1, [ other ]))
        top
    in
    return (program top))

(* ------------------------------------------------------------------ *)

let prop_static_covers_dynamic =
  Test.make ~name:"static regions cover dynamic accesses" ~count:60
    gen_program ~print:(fun s -> s)
    (fun src ->
      let result = Engine.analyze_sources [ ("fuzz.f", src) ] in
      let m = result.Ipa.Analyze.r_module in
      (* static accesses by (name, is_write) *)
      let static =
        List.concat_map
          (fun (_, (info : Ipa.Collect.pu_info)) ->
            List.filter_map
              (fun (a : Ipa.Collect.access) ->
                let name =
                  Whirl.Ir.st_name m info.Ipa.Collect.p_pu a.Ipa.Collect.ac_st
                in
                match a.Ipa.Collect.ac_mode with
                | Regions.Mode.USE -> Some ((name, false), a.Ipa.Collect.ac_region)
                | Regions.Mode.DEF -> Some ((name, true), a.Ipa.Collect.ac_region)
                | _ -> None)
              info.Ipa.Collect.p_accesses)
          result.Ipa.Analyze.r_infos
      in
      let failures = ref 0 in
      let events = ref 0 in
      let _ =
        Interp.run
          ~observer:(fun ev ->
            incr events;
            if !events <= 20_000 then begin
              let key = (ev.Interp.ev_array, ev.Interp.ev_write) in
              let covered =
                List.exists
                  (fun (k, region) ->
                    k = key
                    && Regions.Region.contains_point region ev.Interp.ev_coords)
                  static
              in
              if not covered then incr failures
            end)
          m
      in
      !failures = 0)

let prop_wopt_preserves_output =
  Test.make ~name:"wopt preserves output" ~count:60 gen_program
    ~print:(fun s -> s)
    (fun src ->
      let lower () =
        Whirl.Lower.lower (Lang.Frontend.load ~files:[ ("fuzz.f", src) ])
      in
      let before = (Interp.run (lower ())).Interp.out_text in
      let m1, _ = Wopt.Const_prop.run (lower ()) in
      let m2, _ = Wopt.Dce.run m1 in
      let after = (Interp.run m2).Interp.out_text in
      String.equal before after)

let prop_analysis_deterministic =
  Test.make ~name:"analysis deterministic" ~count:30 gen_program
    ~print:(fun s -> s)
    (fun src ->
      let rows () =
        (Engine.analyze_sources [ ("fuzz.f", src) ]).Ipa.Analyze.r_rows
        |> List.map Rgnfile.Row.to_fields
      in
      rows () = rows ())

let prop_rgn_roundtrip =
  Test.make ~name:".rgn round-trips on random programs" ~count:40 gen_program
    ~print:(fun s -> s)
    (fun src ->
      let rows =
        (Engine.analyze_sources [ ("fuzz.f", src) ]).Ipa.Analyze.r_rows
      in
      match Rgnfile.Files.parse_rgn (Rgnfile.Files.(to_string (rgn rows))) with
      | Ok rows' ->
        List.length rows = List.length rows'
        && List.for_all2 Rgnfile.Row.equal rows rows'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Writers over adversarial cells: the report JSON and the .rgn CSV are
   written straight into a buffer, quoting or escaping only the cells that
   need it; both must read back to exactly what was written. *)

let gen_char =
  Gen.(
    oneof [ oneofl [ '"'; '\\'; ','; '\n'; '\r' ];
            map Char.chr (int_range 0 0x1f);
            map Char.chr (int_range 0x20 0x7e) ])

let gen_cell = Gen.(string_size ~gen:gen_char (int_range 0 12))

let gen_report =
  Gen.(
    let* analysis = string_size ~gen:gen_char (int_range 1 12) in
    let* summary = list_size (int_range 0 3) (pair gen_cell gen_cell) in
    let* width = int_range 1 4 in
    let* columns = list_repeat width gen_cell in
    let* rows = list_size (int_range 0 5) (list_repeat width gen_cell) in
    return (Analyses.Report.make ~analysis ~summary ~columns rows))

let prop_report_json_roundtrip =
  Test.make ~name:"report JSON round-trips adversarial cells" ~count:300
    Gen.(list_size (int_range 0 3) gen_report)
    ~print:(fun rs -> Analyses.Report.json_of_reports rs)
    (fun reports ->
      let json = Analyses.Report.json_of_reports reports in
      match Analyses.Report.parse json with
      | Ok parsed ->
        parsed = reports && Analyses.Report.json_of_reports parsed = json
      | Error _ -> false)

let gen_row =
  Gen.(
    let* cells = list_repeat 10 gen_cell in
    let* ints = list_repeat 8 (int_range (-5) 100_000) in
    let* props = oneofl [ "-"; "b"; "bm"; "mi"; "bmi" ] in
    match (cells, ints) with
    | ( [ scope; array; file; mode; lb; ub; stride; data_type; dim_size; mem_loc ],
        [ references; dimensions; element_size; tot_size; size_bytes;
          acc_density; line; _ ] ) ->
      return
        {
          Rgnfile.Row.scope; array; file; mode; references; dimensions; lb; ub;
          stride; element_size; data_type; dim_size; tot_size; size_bytes;
          mem_loc; acc_density; line; props;
        }
    | _ -> assert false)

let prop_rgn_adversarial_roundtrip =
  Test.make ~name:".rgn round-trips adversarial cells" ~count:300
    Gen.(list_size (int_range 0 6) gen_row)
    ~print:(fun rows -> Rgnfile.Files.(to_string (rgn rows)))
    (fun rows ->
      Rgnfile.Files.parse_rgn (Rgnfile.Files.(to_string (rgn rows))) = Ok rows)

(* ------------------------------------------------------------------ *)
(* Fault tolerance: whatever fault spec is installed, [Pipeline.run] under
   --keep-going terminates with an exit code — no exception escapes any
   recovery layer. *)

let gen_fault_spec =
  Gen.(
    let* site =
      oneofl [ "store.read"; "store.write"; "store.marshal"; "pool"; "all" ]
    in
    let* rate = oneofl [ 0.0; 0.1; 0.5; 1.0 ] in
    let* seed = int_range 0 99 in
    return (Printf.sprintf "%s:%g:%d" site rate seed))

(* the pipeline prints its reports to stdout; silence them without losing
   the QCheck progress output (stderr) *)
let with_quiet_stdout f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let prop_faults_never_escape =
  Test.make ~name:"injected faults never escape Pipeline.run" ~count:25
    Gen.(pair gen_program gen_fault_spec)
    ~print:(fun (src, spec) -> spec ^ "\n" ^ src)
    (fun (src, spec) ->
      let tmp = Filename.temp_file "fuzz" ".f" in
      let oc = open_out_bin tmp in
      output_string oc src;
      close_out oc;
      Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
      let cfg =
        {
          Pipeline.default with
          paths = [ tmp ];
          keep_going = true;
          fault_specs = [ spec ];
          cache_dir = Some (Test_engine.fresh_dir ());
          jobs = 2;
        }
      in
      match (with_quiet_stdout (fun () -> Pipeline.run cfg)).Pipeline.r_code with
      | 0 | 1 -> true
      | code ->
        Printf.eprintf "Pipeline.run returned %d under %s\n" code spec;
        false)

(* ------------------------------------------------------------------ *)
(* Malformed cache segments: whatever bytes a segment holds, opening the
   store and running the engine never raises, the outputs equal the
   uncached oracle, and an entry hits exactly when its payload survives
   intact where the segment's own index says it is. *)

let seg_matrix = [ Corpus.Small.matrix_c ]

(* a real segment of a corpus's engine entries: its bytes, and each
   entry's original payload by (namespace, key) *)
let real_segment files =
  let dir = Test_engine.fresh_dir () in
  Fun.protect ~finally:(fun () -> Test_engine.rm_rf dir) @@ fun () ->
  ignore
    (Engine.run
       (Engine.config ~store:(Engine_store.create ~dir ()) ())
       (Test_engine.lower files));
  match Test_engine.segments (Test_engine.schema_dir dir) with
  | [ seg ] ->
    let bytes = In_channel.with_open_bin seg In_channel.input_all in
    ( bytes,
      List.map
        (fun (ns, key, off, len) -> ((ns, key), String.sub bytes off len))
        (Option.get (Engine_store.segment_index seg)) )
  | segs -> Alcotest.failf "expected one segment, found %d" (List.length segs)

let seg_fixture =
  lazy
    ( real_segment seg_matrix,
      real_segment [ Corpus.Small.stride_f ],
      Test_engine.render (Engine.analyze (Test_engine.lower seg_matrix)) )

type seg_mutation =
  | Truncate of int
  | Flip of int * int  (** offset, xor mask *)
  | Splice of int * int  (** matrix prefix length, stride suffix start *)

let mutate a b = function
  | Truncate i -> String.sub a 0 (i mod String.length a)
  | Flip (p, mask) ->
    let p = p mod String.length a in
    String.mapi
      (fun i c -> if i = p then Char.chr (Char.code c lxor mask) else c)
      a
  | Splice (i, j) ->
    let i = i mod (String.length a + 1) and j = j mod (String.length b + 1) in
    String.sub a 0 i ^ String.sub b j (String.length b - j)

let check_mutant m =
  let (a, a_payloads), (b, b_payloads), oracle = Lazy.force seg_fixture in
  let mutant = mutate a b m in
  let dir = Test_engine.fresh_dir () in
  let sub = Test_engine.schema_dir dir in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat sub f)) (Sys.readdir sub);
      Sys.rmdir sub;
      Sys.rmdir dir)
  @@ fun () ->
  Obs.Ledger.mkdir_p sub;
  let path = Filename.concat sub "mutant.seg" in
  Out_channel.with_open_bin path (fun oc -> output_string oc mutant);
  let original = a_payloads @ b_payloads in
  let intact =
    match Engine_store.segment_index path with
    | None -> []
    | Some es ->
      List.filter_map
        (fun (ns, key, off, len) ->
          match List.assoc_opt (ns, key) original with
          | Some p when String.sub mutant off len = p -> Some (ns, key)
          | _ -> None)
        es
  in
  let r =
    Engine.run
      (Engine.config ~store:(Engine_store.create ~dir ()) ())
      (Test_engine.lower seg_matrix)
  in
  let exact (ns, hex, hit) =
    let key = Digest.from_hex hex in
    hit = List.mem (ns, key) intact
    || (Printf.eprintf "%s-%s: hit %b, intact %b\n" ns hex hit (not hit);
        false)
  in
  Test_engine.render r.Engine.e_result = oracle
  && List.for_all
       (fun (p : Obs.Ledger.pu) ->
         exact ("c", p.pu_key1, p.pu_collect_hit)
         && exact ("s", p.pu_key2, p.pu_summary_hit))
       r.Engine.e_pus

let gen_seg_mutation =
  Gen.(
    let pos = int_range 0 1_000_000 in
    oneof
      [
        map (fun i -> Truncate i) pos;
        map2 (fun p m -> Flip (p, m)) pos (int_range 1 255);
        map2 (fun i j -> Splice (i, j)) pos pos;
      ])

let print_seg_mutation = function
  | Truncate i -> Printf.sprintf "truncate at %d" i
  | Flip (p, m) -> Printf.sprintf "flip byte %d by %#x" p m
  | Splice (i, j) -> Printf.sprintf "splice %d | %d" i j

let prop_store_segments =
  Test.make ~name:"store segments never raise" ~count:300 gen_seg_mutation
    ~print:print_seg_mutation check_mutant

(* the same contract at every truncation point of the real segment *)
let test_every_truncation () =
  let (a, _), _, _ = Lazy.force seg_fixture in
  for i = 0 to String.length a - 1 do
    if not (check_mutant (Truncate i)) then
      Alcotest.failf "segment truncated at %d: wrong output or hit" i
  done

let suite =
  [
    QCheck_alcotest.to_alcotest prop_rgn_roundtrip;
    QCheck_alcotest.to_alcotest prop_static_covers_dynamic;
    QCheck_alcotest.to_alcotest prop_wopt_preserves_output;
    QCheck_alcotest.to_alcotest prop_analysis_deterministic;
    QCheck_alcotest.to_alcotest prop_faults_never_escape;
    QCheck_alcotest.to_alcotest prop_report_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_rgn_adversarial_roundtrip;
    QCheck_alcotest.to_alcotest prop_store_segments;
    Alcotest.test_case "store segment truncations" `Quick
      test_every_truncation;
  ]
