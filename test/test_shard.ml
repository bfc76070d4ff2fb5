(* The shared cache tier heals one bad shard entry: a single summary entry
   corrupted in place is quarantined with a diagnostic, recomputed to the
   same bytes, and republished, so the next run is fully warm again. *)

let lower = Test_engine.lower
let render = Test_engine.render
let check_same_output = Test_engine.check_same_output

let test_quarantine_then_heal () =
  let dir = Test_engine.fresh_dir () in
  Fun.protect ~finally:(fun () -> Test_engine.rm_rf dir) @@ fun () ->
  let files = Test_engine.corpus_files "matrix" in
  let run () =
    Engine.run
      (Engine.config ~jobs:2 ~store:(Engine_store.create ~dir ()) ())
      (lower files)
  in
  let cold = run () in
  let baseline = render cold.Engine.e_result in
  (* corrupt one summary entry in place *)
  let victim =
    match
      List.find_opt
        (fun p -> String.starts_with ~prefix:"s-" (Filename.basename p))
        (Test_engine.files_under dir)
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
    Alcotest.test_case "corrupt entry quarantines then heals" `Quick
      test_quarantine_then_heal;
  ]
