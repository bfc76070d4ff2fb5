(* Bounds checking / check elimination on the convex regions.

   Every USE/DEF access record in the per-PU tables — direct references and
   call-propagated ones (already substituted formal-to-actual) — is compared
   against the array's declared extents.  The packed Fourier-Motzkin
   [implies] path decides the three-valued verdict (Gange et al.'s
   partial-order reading: proven-safe / proven-unsafe / maybe), every
   entailment exact.  Maybes are exactly the residual runtime checks a
   checking compiler would have to keep. *)

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

let classify ~extents region =
  match Region.extent_check ~extents region with
  | Region.In_bounds -> Safe
  | Region.Out_of_bounds -> Unsafe
  | Region.Unknown_bounds -> Maybe

module Verdicts = Hashtbl.Make (struct
  type t = int * bool * Region.dim list * int option list

  (* accesses of one shape share their region's dims, and accesses to one
     symbol its extents: identity decides most lookups *)
  let equal (s1, c1, d1, e1) (s2, c2, d2, e2) =
    Int.equal s1 s2 && Bool.equal c1 c2
    && (d1 == d2 || d1 = d2)
    && (e1 == e2 || e1 = e2)

  (* the system id nearly decides the key; a run has few distinct keys *)
  let hash (s, c, d, e) =
    ((s * 65599) + (Bool.to_int c * 31) + (List.length d * 7) + List.length e)
    land max_int
end)

(* What the accesses of one (region, extents) key share: the verdict, and
   the row tails [Verdict; LB; UB; Stride; Inspector] built so far, one per
   source lower bounds (the rest of the tail follows from the key) *)
type shape = {
  verdict : verdict;
  mutable tails : (int list * string list) list;
}

let run (ctx : Analysis.ctx) =
  Obs.Span.with_ ~cat:"analysis" ~name:"analysis:bounds" @@ fun () ->
  let m = ctx.Analysis.ctx_module in
  let r = ctx.Analysis.ctx_result in
  (* Call-propagated accesses repeat the same (region, extents) pair at
     every call site; the verdict is a pure function of the region's
     canonical system, its triplets, the clamped flag and the declared
     extents, so one solver round per distinct pair suffices.  The memo is
     local to the run — no state survives into the next pipeline run. *)
  let verdict_memo = Verdicts.create 64 in
  let memo_hits = ref 0 in
  let classify_memo ~extents region =
    let key =
      ( Linear.System.id region.Region.sys,
        Region.is_clamped region,
        Region.dim_list region,
        extents )
    in
    match Verdicts.find_opt verdict_memo key with
    | Some shape ->
      incr memo_hits;
      shape
    | None ->
      let shape = { verdict = classify ~extents region; tails = [] } in
      Verdicts.add verdict_memo key shape;
      shape
  in
  let safe = ref 0 and unsafe = ref 0 and maybe = ref 0 in
  let sparse_accesses = ref 0 and sparse_proven = ref 0 in
  let inspector_entries = ref 0 in
  let rows = ref [] in
  let diags = ref [] in
  let pu_of = Ir.pu_index m in
  let display = Ipa.Analyze.display_memo () in
  (* only a diagnostic names the access in prose:
     "<array> <mode>[ via call to <callee>] at line <n>: <verdict text>" *)
  let diag_text (sy : Ipa.Analyze.symbol) mode via line text =
    String.concat ""
      (sy.Ipa.Analyze.sy_name :: " " :: Mode.to_string mode
      :: (if via = "" then [] else [ " via call to "; via ])
      @ [ " at line "; string_of_int line; ": "; text ])
  in
  let build_tail shape ~lows region inspector =
    let lb, ub, stride = Ipa.Analyze.display_bounds display ~lows region in
    [ verdict_name shape.verdict; lb; ub; stride; inspector ]
  in
  (* the rows of one shape and symbol end in the same five cells: they
     share them rather than cons their own *)
  let rec shared_tail shape ~lows region inspector = function
    | (l, cells) :: rest ->
      if l == lows || l = lows then cells
      else shared_tail shape ~lows region inspector rest
    | [] ->
      let cells = build_tail shape ~lows region inspector in
      shape.tails <- (lows, cells) :: shape.tails;
      cells
  in
  (* the Line cell repeats across accesses: one string per distinct line *)
  let line_cells = Hashtbl.create 256 in
  let line_cell line =
    match Hashtbl.find_opt line_cells line with
    | Some s -> s
    | None ->
      let s = string_of_int line in
      Hashtbl.add line_cells line s;
      s
  in
  List.iter
    (fun (t : Ipa.Analyze.proc_table) ->
      let proc = t.Ipa.Analyze.t_proc in
      match pu_of proc with
      | None -> ()
      | Some pu ->
        List.iter
          (fun (a : Ipa.Collect.access) ->
            match a.Ipa.Collect.ac_mode with
            | (Mode.USE | Mode.DEF) as mode ->
              let sy = Ipa.Analyze.symbol display m pu a.Ipa.Collect.ac_st in
              let region = a.Ipa.Collect.ac_region in
              let shape =
                classify_memo ~extents:sy.Ipa.Analyze.sy_extents region
              in
              let v = shape.verdict in
              (match v with
              | Safe -> incr safe
              | Unsafe -> incr unsafe
              | Maybe -> incr maybe);
              if Region.is_assumed region then begin
                incr sparse_accesses;
                if v = Safe then incr sparse_proven
              end;
              let line = Lang.Loc.line a.Ipa.Collect.ac_loc in
              let via =
                match a.Ipa.Collect.ac_via with None -> "" | Some c -> c
              in
              (* undecidable access: a runtime-inspector entry naming what a
                 dynamic checker would have to watch — the index array the
                 subscript reads through (a cell of its own), or the raw
                 extent check *)
              let lows = sy.Ipa.Analyze.sy_lows in
              let tail =
                match (v, a.Ipa.Collect.ac_sparse) with
                | Maybe, Some index ->
                  incr inspector_entries;
                  build_tail shape ~lows region index
                | Maybe, None ->
                  incr inspector_entries;
                  shared_tail shape ~lows region "extent" shape.tails
                | (Safe | Unsafe), _ ->
                  shared_tail shape ~lows region "-" shape.tails
              in
              rows :=
                (proc :: sy.Ipa.Analyze.sy_name :: Mode.to_string mode
                :: line_cell line :: via :: tail)
                :: !rows;
              (match v with
              | Unsafe ->
                diags :=
                  Fault.Diag.make ~severity:Fault.Diag.Error
                    ~site:"analysis.bounds" ~pu:proc ~action:"report"
                    (diag_text sy mode via line "proven out of bounds")
                  :: !diags
              | Maybe ->
                diags :=
                  Fault.Diag.make ~site:"analysis.bounds" ~pu:proc
                    ~action:"runtime-check"
                    (diag_text sy mode via line
                       "not proven; keep runtime check")
                  :: !diags
              | Safe -> ())
            | Mode.FORMAL | Mode.PASSED | Mode.RUSE | Mode.RDEF -> ())
          t.Ipa.Analyze.t_accesses)
    r.Ipa.Analyze.r_tables;
  Obs.Metrics.Counter.add c_memo !memo_hits;
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
