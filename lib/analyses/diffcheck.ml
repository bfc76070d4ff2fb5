(* Differential harness: static verdicts vs the interpreter.

   The module is executed once under [Interp.run ~record_oob:true], which
   collects every out-of-bounds access of the run instead of trapping on
   the first.  Each observed fault is then looked up in the bounds
   verdict table under its executing procedure, array, direction and
   source line, and two soundness obligations are checked:

   - no proven-safe access may fault: if every verdict row at the fault's
     key says safe, the static analysis promised something the runtime
     refuted — a genuine analysis bug, reported as [safe_faults];
   - inspector coverage: every fault must sit under at least one
     maybe/unsafe row (i.e. a runtime-inspector entry or a proven
     violation).  A fault with no covering row means the analysis missed
     the access entirely, reported as [uncovered].

   Both counters must be zero for [ok=true].  The check is a pure
   function of the module and the analysis result, so its report is
   byte-identical across --jobs and --workers settings like every other
   client. *)

open Whirl
open Regions

let name = "diffcheck"

let c_oob = Obs.Metrics.counter "analyses.diffcheck.oob_events"
let c_safe_faults = Obs.Metrics.counter "analyses.diffcheck.safe_faults"
let c_uncovered = Obs.Metrics.counter "analyses.diffcheck.uncovered"

type verdicts = { mutable v_safe : int; mutable v_other : int }

let run (ctx : Analysis.ctx) =
  Obs.Span.with_ ~cat:"analysis" ~name:"analysis:diffcheck" @@ fun () ->
  let m = ctx.Analysis.ctx_module in
  let r = ctx.Analysis.ctx_result in
  (* verdict table: (proc, array, mode, line) -> safe/other row counts,
     over direct and call-propagated USE/DEF accesses, classified exactly
     like the bounds client (shared memo keyed on region + extents) *)
  let memo = Hashtbl.create 64 in
  let classify ~extents region =
    let key =
      ( Linear.System.id region.Region.sys,
        Region.is_clamped region,
        Region.dim_list region,
        extents )
    in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v = Bounds.classify ~extents region in
      Hashtbl.add memo key v;
      v
  in
  let table : (string * string * Mode.t * int, verdicts) Hashtbl.t =
    Hashtbl.create 256
  in
  let n_rows = ref 0 in
  List.iter
    (fun (t : Ipa.Analyze.proc_table) ->
      match Ir.find_pu m t.Ipa.Analyze.t_proc with
      | None -> ()
      | Some pu ->
        List.iter
          (fun (a : Ipa.Collect.access) ->
            match a.Ipa.Collect.ac_mode with
            | Mode.USE | Mode.DEF ->
              let st = a.Ipa.Collect.ac_st in
              let extents = Ipa.Collect.extents_of m pu st in
              let v = classify ~extents a.Ipa.Collect.ac_region in
              let key =
                ( t.Ipa.Analyze.t_proc,
                  Ir.st_name m pu st,
                  a.Ipa.Collect.ac_mode,
                  Lang.Loc.line a.Ipa.Collect.ac_loc )
              in
              incr n_rows;
              let c =
                match Hashtbl.find_opt table key with
                | Some c -> c
                | None ->
                  let c = { v_safe = 0; v_other = 0 } in
                  Hashtbl.add table key c;
                  c
              in
              (match v with
              | Bounds.Safe -> c.v_safe <- c.v_safe + 1
              | Bounds.Unsafe | Bounds.Maybe -> c.v_other <- c.v_other + 1)
            | Mode.FORMAL | Mode.PASSED | Mode.RUSE | Mode.RDEF -> ())
          t.Ipa.Analyze.t_accesses)
    r.Ipa.Analyze.r_tables;
  (* one recorded run; faults are collected, not trapped *)
  let outcome = Interp.run ~record_oob:true m in
  let safe_faults = ref 0 and uncovered = ref 0 in
  let rows = ref [] in
  let diags = ref [] in
  List.iter
    (fun (o : Interp.oob) ->
      let mode = if o.Interp.oob_write then Mode.DEF else Mode.USE in
      let key = (o.Interp.oob_pu, o.Interp.oob_array, mode, o.Interp.oob_line) in
      let safe, other =
        match Hashtbl.find_opt table key with
        | Some c -> (c.v_safe, c.v_other)
        | None -> (0, 0)
      in
      let covered = other > 0 in
      let safe_fault = (not covered) && safe > 0 in
      if safe_fault then incr safe_faults;
      if not covered then begin
        incr uncovered;
        diags :=
          Fault.Diag.make
            ~severity:(if safe_fault then Fault.Diag.Error else Fault.Diag.Warning)
            ~site:"analysis.diffcheck" ~pu:o.Interp.oob_pu ~action:"report"
            (Printf.sprintf
               "%s %s at line %d faulted at runtime (%s) but %s"
               o.Interp.oob_array
               (Mode.to_string mode)
               o.Interp.oob_line
               (String.concat ","
                  (List.map string_of_int o.Interp.oob_coords))
               (if safe_fault then "was proven safe"
                else "has no covering verdict row"))
          :: !diags
      end;
      rows :=
        [
          o.Interp.oob_pu;
          o.Interp.oob_array;
          Mode.to_string mode;
          string_of_int o.Interp.oob_line;
          String.concat "," (List.map string_of_int o.Interp.oob_coords);
          (if o.Interp.oob_write then "write" else "read");
          (if covered then "yes" else "no");
          (if safe_fault then "yes" else "no");
        ]
        :: !rows)
    outcome.Interp.out_oob;
  let n_oob = List.length outcome.Interp.out_oob in
  let ok = !safe_faults = 0 && !uncovered = 0 in
  Obs.Metrics.Counter.add c_oob n_oob;
  Obs.Metrics.Counter.add c_safe_faults !safe_faults;
  Obs.Metrics.Counter.add c_uncovered !uncovered;
  let report =
    Report.make ~analysis:name
      ~summary:
        [
          ("verdict_rows", string_of_int !n_rows);
          ("steps", string_of_int outcome.Interp.out_steps);
          ("oob_events", string_of_int n_oob);
          ("covered", string_of_int (n_oob - !uncovered));
          ("uncovered", string_of_int !uncovered);
          ("safe_faults", string_of_int !safe_faults);
          ("ok", if ok then "true" else "false");
        ]
      ~columns:
        [
          "Proc"; "Array"; "Mode"; "Line"; "Coords"; "Kind"; "Covered";
          "SafeFault";
        ]
      (List.rev !rows)
  in
  (report, List.rev !diags)
