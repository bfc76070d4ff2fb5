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
  (* corrupt one summary entry in place, found through its segment's
     index *)
  let seg, off, len =
    match
      List.find_opt
        (fun (_, ns, _, _, _) -> ns = "s")
        (Test_engine.payloads (Test_engine.schema_dir dir))
    with
    | Some (seg, _, _, off, len) -> (seg, off, len)
    | None -> Alcotest.fail "no summary entry on disk"
  in
  let garbage = "garbage, not a marshal image" in
  Test_engine.overwrite seg off
    (String.sub garbage 0 (min len (String.length garbage)));
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
