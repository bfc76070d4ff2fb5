(* Permission inference (Dohrau et al., "Permission Inference for Array
   Programs"): a procedure's read/write permission precondition is exactly
   its interprocedural summary — the USE entries are the array parts the
   caller must grant read permission on, the DEF entries the parts needing
   write permission.  FORMAL entries are preconditions proper; entries on
   globals are the procedure's footprint on shared state. *)

open Whirl

let name = "permissions"

let c_read = Obs.Metrics.counter "analyses.permissions.read"
let c_write = Obs.Metrics.counter "analyses.permissions.write"

let permission_of_mode = function
  | Regions.Mode.USE -> "read"
  | Regions.Mode.DEF -> "write"
  | m -> Regions.Mode.to_string m

let run (ctx : Analysis.ctx) =
  Obs.Span.with_ ~cat:"analysis" ~name:"analysis:permissions" @@ fun () ->
  let m = ctx.Analysis.ctx_module in
  let r = ctx.Analysis.ctx_result in
  let reads = ref 0 and writes = ref 0 and procs = ref 0 in
  let rows = ref [] in
  let pu_of = Ir.pu_index m in
  let display = Ipa.Analyze.display_memo () in
  List.iter
    (fun (proc, summary) ->
      match pu_of proc with
      | None -> ()
      | Some pu ->
        if summary <> [] then incr procs;
        List.iter
          (fun (e : Ipa.Summary.entry) ->
            let target =
              match e.Ipa.Summary.e_key with
              | Ipa.Summary.Kformal p -> (
                match List.nth_opt pu.Ir.pu_formals p with
                | Some st -> Some (st, "formal")
                | None -> None)
              | Ipa.Summary.Kglobal g ->
                if Ir.is_global_idx g then Some (g, "global") else None
            in
            match target with
            | None -> ()
            | Some (st, kind) ->
              (match e.Ipa.Summary.e_mode with
              | Regions.Mode.USE -> incr reads
              | Regions.Mode.DEF -> incr writes
              | _ -> ());
              let lb, ub, stride =
                Ipa.Analyze.display_bounds display
                  ~lows:(Ipa.Analyze.source_lows m pu st)
                  e.Ipa.Summary.e_region
              in
              rows :=
                [
                  proc;
                  Ir.st_name m pu st;
                  kind;
                  permission_of_mode e.Ipa.Summary.e_mode;
                  lb;
                  ub;
                  stride;
                  (if Regions.Region.is_exact e.Ipa.Summary.e_region then "y"
                   else "n");
                  string_of_int e.Ipa.Summary.e_count;
                ]
                :: !rows)
          summary)
    r.Ipa.Analyze.r_summaries;
  Obs.Metrics.Counter.add c_read !reads;
  Obs.Metrics.Counter.add c_write !writes;
  let report =
    Report.make ~analysis:name
      ~summary:
        [
          ("procedures", string_of_int !procs);
          ("read_preconditions", string_of_int !reads);
          ("write_preconditions", string_of_int !writes);
        ]
      ~columns:
        [
          "Proc"; "Array"; "Kind"; "Permission"; "LB"; "UB"; "Stride";
          "Exact"; "Count";
        ]
      (List.rev !rows)
  in
  (report, [])
