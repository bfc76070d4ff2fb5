(* The shard subsystem's contract: the wire protocol round-trips exactly
   and rejects layout skew, outputs are byte-identical at every worker
   topology (including under fault isolation), and the shared cache tier is
   published exactly once — concurrent writers and corrupted entries
   self-heal without ever changing an output. *)

let lower = Test_engine.lower
let render = Test_engine.render
let check_same_output = Test_engine.check_same_output

let gen_small = lazy (Corpus.Gen.generate Corpus.Gen.default)

let corpus_files = function
  | "gen-small" -> Lazy.force gen_small
  | other -> Test_engine.corpus_files other

let temp_dir () =
  let d = Filename.temp_file "shard" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* every file under [dir], recursively *)
let rec files_under dir =
  List.concat_map
    (fun name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then files_under p else [ p ])
    (Array.to_list (Sys.readdir dir))

let check_no_litter where dir =
  List.iter
    (fun p ->
      let base = Filename.basename p in
      let has sub =
        let n = String.length base and m = String.length sub in
        let rec go i = i + m <= n && (String.sub base i m = sub || go (i + 1)) in
        go 0
      in
      if has ".tmp." then
        Alcotest.failf "%s: unpublished temp file %s left behind" where p;
      if has ".quarantined" then
        Alcotest.failf "%s: quarantined entry %s" where p)
    (files_under dir)

(* ---- wire protocol -------------------------------------------------- *)

let proto_msgs =
  [
    Engine_proto.Hello (1234, "abcdef012345");
    Engine_proto.Init
      {
        Engine_proto.in_module = "MODULE image\nwith lines\n";
        in_keep_going = true;
        in_fault_specs = [ "pool:0.5:7:main"; "io_read:1:0" ];
        in_solver_budget = Some 42;
        in_cache_dir = Some "/tmp/shared-tier";
      };
    Engine_proto.Init
      {
        Engine_proto.in_module = "";
        in_keep_going = false;
        in_fault_specs = [];
        in_solver_budget = None;
        in_cache_dir = None;
      };
    Engine_proto.Task
      {
        Engine_proto.t_id = 3;
        t_members =
          [
            {
              Engine_proto.mb_name = "f";
              mb_poisoned = false;
              mb_collect = "\x00\x01collect-image\xff";
              mb_key = String.make 16 '\x01';
            };
            {
              Engine_proto.mb_name = "g";
              mb_poisoned = true;
              mb_collect = "";
              mb_key = "";
            };
          ];
        t_callees = [ ("h", "summary-image"); ("k", "\x00binary\x00") ];
      };
    Engine_proto.Result
      {
        Engine_proto.r_id = 3;
        r_busy_ns = 98765;
        r_degraded = 2;
        r_solver = "\x00\x01marshal-blob";
        r_outcomes =
          [
            ("f", Engine_proto.O_summary "SUM");
            ("g", Engine_proto.O_opaque);
            ("h", Engine_proto.O_poisoned ("summarize", "pool", "boom"));
            ("k", Engine_proto.O_failed ("fatal", Some ("pool", "summarize:k")));
            ("l", Engine_proto.O_failed ("fatal2", None));
          ];
      };
    Engine_proto.Shutdown;
  ]

let test_proto_roundtrip () =
  let msgs = proto_msgs in
  let rd, wr = Unix.pipe () in
  List.iter (Engine_proto.write_msg wr) msgs;
  Unix.close wr;
  List.iteri
    (fun i expect ->
      match Engine_proto.read_msg rd with
      | Some got ->
        Alcotest.(check bool)
          (Printf.sprintf "message %d round-trips" i)
          true (got = expect)
      | None -> Alcotest.failf "premature end of stream at message %d" i)
    msgs;
  Alcotest.(check bool) "clean EOF" true (Engine_proto.read_msg rd = None);
  Unix.close rd

(* a payload longer than its tag's layout means coordinator and worker
   disagree on the wire format: the reader must fail, not ignore the
   leftovers *)
let test_proto_trailing_bytes () =
  let frame tag payload =
    let n = String.length payload in
    String.make 1 tag
    ^ String.init 8 (fun i -> Char.chr ((n lsr ((7 - i) * 8)) land 0xff))
    ^ payload
  in
  let encoded msg =
    let rd, wr = Unix.pipe () in
    Engine_proto.write_msg wr msg;
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let s = In_channel.input_all ic in
    close_in ic;
    String.sub s 9 (String.length s - 9)
  in
  let init_payload = encoded (List.nth proto_msgs 1) in
  List.iter
    (fun (what, bytes) ->
      let rd, wr = Unix.pipe () in
      ignore (Unix.write_substring wr bytes 0 (String.length bytes));
      Unix.close wr;
      (match Engine_proto.read_msg rd with
      | exception Failure msg ->
        Alcotest.(check string) what "Engine_proto: trailing bytes" msg
      | _ -> Alcotest.failf "%s: decoded despite trailing bytes" what);
      Unix.close rd)
    [
      ("Shutdown with a payload", frame 'Q' "junk");
      ("Init with an extra byte", frame 'I' (init_payload ^ "\000"));
    ]

(* ---- byte-identity across topologies -------------------------------- *)

let test_workers_identical () =
  List.iter
    (fun corpus ->
      let files = corpus_files corpus in
      let serial =
        render (Engine.run (Engine.config ()) (lower files)).Engine.e_result
      in
      let topologies =
        if corpus = "lu" then [ (1, 1); (2, 1); (2, 4) ] else [ (2, 1) ]
      in
      List.iter
        (fun (workers, jobs) ->
          let r = Engine.run (Engine.config ~jobs ~workers ()) (lower files) in
          check_same_output
            (Printf.sprintf "%s workers=%d jobs=%d" corpus workers jobs)
            serial
            (render r.Engine.e_result);
          match r.Engine.e_stats.Engine.Stats.s_shard with
          | Some s ->
            Alcotest.(check int)
              (corpus ^ " requested workers")
              workers s.Engine_shard.st_requested
          | None -> Alcotest.fail (corpus ^ ": shard stats missing"))
        topologies)
    [ "matrix"; "stride"; "fig1"; "lu"; "gen-small" ]

(* ---- fault isolation parity ------------------------------------------ *)

let with_specs raw f =
  match Fault.parse_specs raw with
  | Error e -> Alcotest.failf "parse_specs: %s" e
  | Ok specs ->
    Fault.configure specs;
    Fun.protect ~finally:Fault.clear f

let test_fault_parity () =
  let files = corpus_files "gen-small" in
  with_specs [ "pool:0.3:7" ] @@ fun () ->
  let run workers =
    Engine.run (Engine.config ~workers ~keep_going:true ()) (lower files)
  in
  let a = run 0 in
  let b = run 2 in
  check_same_output "pool faults workers 0 vs 2"
    (render a.Engine.e_result)
    (render b.Engine.e_result);
  let norm (r : Engine.result) =
    List.sort compare
      (List.map
         (fun (d : Fault.Diag.t) ->
           (d.Fault.Diag.d_site, d.Fault.Diag.d_pu, d.Fault.Diag.d_action))
         r.Engine.e_diags)
  in
  Alcotest.(check bool) "some PU was isolated" true (norm a <> []);
  Alcotest.(check bool)
    "identical isolation diagnostics across topologies" true
    (norm a = norm b)

(* ---- shared-tier publish discipline ---------------------------------- *)

let test_publish_exactly_once () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let files = corpus_files "gen-small" in
  let pub = Obs.Metrics.counter "store.publishes" in
  let skip = Obs.Metrics.counter "store.publish_skips" in
  let p0 = Obs.Metrics.Counter.get pub in
  let s0 = Obs.Metrics.Counter.get skip in
  let run () =
    Engine.run
      (Engine.config ~workers:2 ~store:(Engine_store.create ~dir ()) ())
      (lower files)
  in
  let cold = run () in
  Alcotest.(check bool) "cold run computed summaries" true
    (cold.Engine.e_stats.Engine.Stats.s_summary_misses > 0);
  (* the workers published every summary they computed into the shared
     tier before returning it, so the coordinator's end-of-run persist
     pass finds the files already present and skips the writes *)
  Alcotest.(check bool) "coordinator skipped already-published entries" true
    (Obs.Metrics.Counter.get skip - s0 > 0);
  Alcotest.(check bool) "coordinator still published collect entries" true
    (Obs.Metrics.Counter.get pub - p0 > 0);
  check_no_litter "cold shared tier" dir;
  (* a warm run through a fresh handle reads everything back: nothing is
     recomputed at any worker count, and no process is even spawned *)
  let warm = run () in
  Alcotest.(check int) "warm full summary hits"
    warm.Engine.e_stats.Engine.Stats.s_pus
    warm.Engine.e_stats.Engine.Stats.s_summary_hits;
  match warm.Engine.e_stats.Engine.Stats.s_shard with
  | Some s ->
    Alcotest.(check int) "warm run spawned no worker" 0
      s.Engine_shard.st_spawned
  | None -> Alcotest.fail "shard stats missing"

let exe name =
  Filename.concat (Filename.concat ".." "bin") (name ^ ".exe")

let drain_and_close ic =
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (Unix.close_process_in ic, Buffer.contents buf)

let test_concurrent_writers () =
  if not (Sys.file_exists (exe "uhc")) then ()
  else begin
    let dir = temp_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let cache = Filename.concat dir "cache" in
    let spawn n =
      let out = Filename.concat dir ("o" ^ string_of_int n) in
      Unix.open_process_in
        (Printf.sprintf
           "%s --corpus gen-small --workers 2 --cache-dir %s -o %s -p gs 2>&1"
           (exe "uhc") (Filename.quote cache) (Filename.quote out))
    in
    (* two coordinators (each with two workers) race to publish the same
       content-addressed entries into one shared tier *)
    let p1 = spawn 1 in
    let p2 = spawn 2 in
    let st1, out1 = drain_and_close p1 in
    let st2, out2 = drain_and_close p2 in
    List.iter
      (fun (n, st, out) ->
        if st <> Unix.WEXITED 0 then
          Alcotest.failf "writer %d failed; its output:\n%s" n out)
      [ (1, st1, out1); (2, st2, out2) ];
    List.iter
      (fun f ->
        let read p =
          let ic = open_in_bin p in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          s
        in
        Alcotest.(check bool)
          (f ^ " identical across concurrent writers")
          true
          (read (Filename.concat (Filename.concat dir "o1") f)
          = read (Filename.concat (Filename.concat dir "o2") f)))
      [ "gs.rgn"; "gs.dgn"; "gs.cfg" ];
    check_no_litter "racing shared tier" cache
  end

let test_quarantine_then_heal () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let files = corpus_files "matrix" in
  let run () =
    Engine.run
      (Engine.config ~workers:2 ~store:(Engine_store.create ~dir ()) ())
      (lower files)
  in
  let cold = run () in
  let baseline = render cold.Engine.e_result in
  (* corrupt one summary entry in place *)
  let victim =
    match
      List.find_opt
        (fun p ->
          let b = Filename.basename p in
          String.length b > 2 && String.sub b 0 2 = "s-")
        (files_under dir)
    with
    | Some p -> p
    | None -> Alcotest.fail "no summary entry on disk"
  in
  let oc = open_out_bin victim in
  output_string oc "garbage, not a marshal image";
  close_out oc;
  let healed = run () in
  check_same_output "healed run" baseline (render healed.Engine.e_result);
  Alcotest.(check bool) "corrupt entry was quarantined" true
    (List.exists
       (fun (d : Fault.Diag.t) -> d.Fault.Diag.d_action = "quarantined")
       healed.Engine.e_diags);
  (* the entry was republished: a third run through a fresh handle is
     fully warm again *)
  let warm = run () in
  Alcotest.(check int) "healed tier is fully warm"
    warm.Engine.e_stats.Engine.Stats.s_pus
    warm.Engine.e_stats.Engine.Stats.s_summary_hits;
  check_same_output "warm healed run" baseline (render warm.Engine.e_result)

let suite =
  [
    Alcotest.test_case "wire protocol round-trips over a pipe" `Quick
      test_proto_roundtrip;
    Alcotest.test_case "outputs byte-identical across worker counts" `Quick
      test_workers_identical;
    Alcotest.test_case "wire protocol rejects trailing bytes" `Quick
      test_proto_trailing_bytes;
    Alcotest.test_case "fault isolation parity workers 0 vs 2" `Quick
      test_fault_parity;
    Alcotest.test_case "shared tier published exactly once" `Quick
      test_publish_exactly_once;
    Alcotest.test_case "concurrent writers converge, no litter" `Quick
      test_concurrent_writers;
    Alcotest.test_case "corrupt entry quarantines then heals" `Quick
      test_quarantine_then_heal;
  ]
