(** Loop-level access summaries — the paper's granularity claim: "an
    interprocedural analysis technique to summarize array accesses at both
    loop-level and statement level" (Section I).

    The per-reference rows of the [.rgn] table are the statement level;
    this module aggregates them per DO loop: for every loop of a procedure,
    the union (convex over-approximation) of each array's USE/DEF regions
    inside the loop — including effects of calls in the body.  This is what
    the Case 2 workflow consumes: "one loop in rhs.f accesses regions
    (1:3,1:5,1:10,1:4) of u" is exactly a loop-level summary. *)

type entry = {
  le_array : string;
  le_mode : Regions.Mode.t;
  le_region : Regions.Region.t;
  le_refs : int;  (** reference sites inside the loop *)
}

type loop_summary = {
  ls_proc : string;
  ls_line : int;        (** the DO statement's source line *)
  ls_ivar : string;
  ls_depth : int;       (** 0 = outermost *)
  ls_entries : entry list;
}

val of_pu :
  Whirl.Ir.module_ ->
  (string * Summary.t) list ->
  Whirl.Ir.pu ->
  loop_summary list
(** Every loop of the PU, outermost first (preorder). *)

val of_module :
  Whirl.Ir.module_ -> (string * Summary.t) list -> loop_summary list

val render : Whirl.Ir.module_ -> Whirl.Ir.pu -> loop_summary list -> string
