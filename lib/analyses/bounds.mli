(** Bounds checking / check elimination client (three-valued verdicts in
    the style of Gange et al., over the interprocedurally substituted
    DEF/USE regions).  Registered as ["bounds"]. *)

val name : string

type verdict = Safe | Unsafe | Maybe

val classify : extents:int option list -> Regions.Region.t -> verdict
(** {!Regions.Region.extent_check}, read three-valued: [In_bounds] is
    [Safe], [Out_of_bounds] [Unsafe], [Unknown_bounds] [Maybe]. *)

val run : Analysis.ctx -> Report.t * Fault.Diag.t list
(** Columns: Proc, Array, Mode, Line, Via (callee for call-propagated
    accesses), Verdict, LB, UB, Stride, Inspector.  Every [unsafe]
    verdict emits an error diagnostic, every [maybe] a ["runtime-check"]
    warning — the residual checks a bounds-checking compiler must keep.
    The Inspector column names the runtime-inspector target for every
    undecidable access: the index array behind an [A(idx(i))] subscript
    when one is known, ["extent"] otherwise, ["-"] on decided rows.  The
    summary carries [sparse_accesses] (accesses through an index array),
    [sparse_proven] (those proven safe via declared index-array
    properties) and [inspector_entries] (= the maybe count). *)
