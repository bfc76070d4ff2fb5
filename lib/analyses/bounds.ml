(* Bounds checking / check elimination on the convex regions.

   Every USE/DEF access record in the per-PU tables — direct references and
   call-propagated ones (already substituted formal-to-actual) — is compared
   against the array's declared extents.  The packed Fourier-Motzkin
   [implies] path decides the three-valued verdict (Gange et al.'s
   partial-order reading: proven-safe / proven-unsafe / maybe); when a
   solver step budget degrades an entailment, the triplet bounding box
   computed at region-construction time serves as a solver-free fallback.
   Maybes are exactly the residual runtime checks a checking compiler would
   have to keep. *)

open Whirl
open Regions

let name = "bounds"

let c_safe = Obs.Metrics.counter "analyses.bounds.safe"
let c_unsafe = Obs.Metrics.counter "analyses.bounds.unsafe"
let c_maybe = Obs.Metrics.counter "analyses.bounds.maybe"
let c_memo = Obs.Metrics.counter "analyses.bounds.verdict_memo_hits"

type verdict = Safe | Unsafe | Maybe

let verdict_name = function
  | Safe -> "safe"
  | Unsafe -> "unsafe"
  | Maybe -> "maybe"

(* Solver-free fallback: the triplet view is a bounding box of the region
   (computed when the region was built, typically before any budget ran
   out).  Box inside the extents proves safety for unclamped regions; box
   entirely outside on one dimension condemns every described access. *)
let box_verdict ~extents region =
  let dims = Region.dim_list region in
  if List.length dims <> List.length extents then Maybe
  else begin
    let all_in = ref true in
    let some_out = ref false in
    List.iter2
      (fun (d : Region.dim) ext ->
        let lo = match d.Region.lb with Region.Bconst l -> Some l | _ -> None in
        let hi = match d.Region.ub with Region.Bconst u -> Some u | _ -> None in
        (match lo, hi, ext with
        | Some l, Some u, Some e -> if not (l >= 0 && u <= e - 1) then all_in := false
        | _ -> all_in := false);
        (match lo, ext with
        | Some l, Some e when l > e - 1 -> some_out := true
        | _ -> ());
        match hi with Some u when u < 0 -> some_out := true | _ -> ())
      dims extents;
    if !some_out then Unsafe
    else if !all_in && not (Region.is_clamped region) then Safe
    else Maybe
  end

let classify ~extents region =
  match Region.extent_check ~extents region with
  | Region.In_bounds -> Safe
  | Region.Out_of_bounds -> Unsafe
  | Region.Unknown_bounds -> box_verdict ~extents region

let run (ctx : Analysis.ctx) =
  Obs.Span.with_ ~cat:"analysis" ~name:"analysis:bounds" @@ fun () ->
  let m = ctx.Analysis.ctx_module in
  let r = ctx.Analysis.ctx_result in
  (* Call-propagated accesses repeat the same (region, extents) pair at
     every call site; the verdict is a pure function of the region's
     canonical system, its triplets, the clamped flag and the declared
     extents, so one solver round per distinct pair suffices.  The memo is
     local to the run — no state survives into the next pipeline run. *)
  let verdict_memo = Hashtbl.create 64 in
  let classify_memo ~extents region =
    let key =
      ( Linear.System.id region.Region.sys,
        Region.is_clamped region,
        Region.dim_list region,
        extents )
    in
    match Hashtbl.find_opt verdict_memo key with
    | Some v ->
      Obs.Metrics.Counter.incr c_memo;
      v
    | None ->
      let v = classify ~extents region in
      Hashtbl.add verdict_memo key v;
      v
  in
  let safe = ref 0 and unsafe = ref 0 and maybe = ref 0 in
  let sparse_accesses = ref 0 and sparse_proven = ref 0 in
  let inspector_entries = ref 0 in
  let rows = ref [] in
  let diags = ref [] in
  let pu_of = Ir.pu_index m in
  let display = Ipa.Analyze.display_memo () in
  List.iter
    (fun (t : Ipa.Analyze.proc_table) ->
      match pu_of t.Ipa.Analyze.t_proc with
      | None -> ()
      | Some pu ->
        List.iter
          (fun (a : Ipa.Collect.access) ->
            match a.Ipa.Collect.ac_mode with
            | Mode.USE | Mode.DEF ->
              let st = a.Ipa.Collect.ac_st in
              let extents = Ipa.Collect.extents_of m pu st in
              let region = a.Ipa.Collect.ac_region in
              let v = (classify_memo ~extents region : verdict) in
              (match v with
              | Safe -> incr safe
              | Unsafe -> incr unsafe
              | Maybe -> incr maybe);
              if Region.is_assumed region then begin
                incr sparse_accesses;
                if v = Safe then incr sparse_proven
              end;
              let arr = Ir.st_name m pu st in
              let line = Lang.Loc.line a.Ipa.Collect.ac_loc in
              let via =
                match a.Ipa.Collect.ac_via with None -> "" | Some c -> c
              in
              let lb, ub, stride =
                Ipa.Analyze.display_bounds display m pu st region
              in
              (* undecidable access: a runtime-inspector entry naming what a
                 dynamic checker would have to watch — the index array the
                 subscript reads through, or the raw extent check *)
              let inspector =
                match v with
                | Maybe ->
                  incr inspector_entries;
                  Option.value a.Ipa.Collect.ac_sparse ~default:"extent"
                | Safe | Unsafe -> "-"
              in
              rows :=
                [
                  t.Ipa.Analyze.t_proc;
                  arr;
                  Mode.to_string a.Ipa.Collect.ac_mode;
                  string_of_int line;
                  via;
                  verdict_name v;
                  lb;
                  ub;
                  stride;
                  inspector;
                ]
                :: !rows;
              let where =
                if via = "" then Printf.sprintf "%s %s at line %d" arr
                    (Mode.to_string a.Ipa.Collect.ac_mode) line
                else
                  Printf.sprintf "%s %s via call to %s at line %d" arr
                    (Mode.to_string a.Ipa.Collect.ac_mode) via line
              in
              (match v with
              | Unsafe ->
                diags :=
                  Fault.Diag.make ~severity:Fault.Diag.Error
                    ~site:"analysis.bounds" ~pu:t.Ipa.Analyze.t_proc
                    ~action:"report"
                    (Printf.sprintf "%s: proven out of bounds" where)
                  :: !diags
              | Maybe ->
                diags :=
                  Fault.Diag.make ~site:"analysis.bounds"
                    ~pu:t.Ipa.Analyze.t_proc ~action:"runtime-check"
                    (Printf.sprintf "%s: not proven; keep runtime check" where)
                  :: !diags
              | Safe -> ())
            | Mode.FORMAL | Mode.PASSED | Mode.RUSE | Mode.RDEF -> ())
          t.Ipa.Analyze.t_accesses)
    r.Ipa.Analyze.r_tables;
  Obs.Metrics.Counter.add c_safe !safe;
  Obs.Metrics.Counter.add c_unsafe !unsafe;
  Obs.Metrics.Counter.add c_maybe !maybe;
  let total = !safe + !unsafe + !maybe in
  let report =
    Report.make ~analysis:name
      ~summary:
        [
          ("accesses", string_of_int total);
          ("safe", string_of_int !safe);
          ("unsafe", string_of_int !unsafe);
          ("maybe", string_of_int !maybe);
          ("checks_eliminated", string_of_int !safe);
          ("residual_checks", string_of_int !maybe);
          ("sparse_accesses", string_of_int !sparse_accesses);
          ("sparse_proven", string_of_int !sparse_proven);
          ("inspector_entries", string_of_int !inspector_entries);
        ]
      ~columns:
        [
          "Proc"; "Array"; "Mode"; "Line"; "Via"; "Verdict"; "LB"; "UB";
          "Stride"; "Inspector";
        ]
      (List.rev !rows)
  in
  (report, List.rev !diags)
