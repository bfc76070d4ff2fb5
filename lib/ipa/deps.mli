(** Data-dependence tests built on the region machinery — the consumer the
    paper says region analysis "mainly supports": "transformations done in
    latter phases of optimizations, such as data dependencies analysis that
    happens in the Loop Nest Optimizer (LNO) phase" (Section IV-A).

    All tests are sound over-approximations (convex, rational): "no
    dependence" answers are definitive, "dependence" answers may be
    spurious. *)

type kind = Flow | Anti | Output

type t = {
  dep_array : string;
  dep_kind : kind;
  dep_carried : bool;  (** by the analyzed loop *)
}

val loop_dependences :
  Whirl.Ir.module_ ->
  (string * Summary.t) list ->
  Whirl.Ir.pu ->
  Whirl.Wn.t ->
  t list
(** Dependences within and across iterations of one DO loop (its body's
    accesses plus summarized callee effects).  The carried flag is computed
    by the two-iteration (i < i') feasibility test. *)

val fusion_preventing :
  Whirl.Ir.module_ ->
  (string * Summary.t) list ->
  Whirl.Ir.pu ->
  first:Whirl.Wn.t ->
  second:Whirl.Wn.t ->
  string list
(** Arrays whose dependences would be reversed by fusing the two loops
    (second's iteration [i'] conflicts with first's iteration [i] for some
    [i' < i]).  Empty list = fusion is legal.  Both loops must use the same
    induction variable symbol. *)

val interchange_preventing :
  Whirl.Ir.module_ ->
  (string * Summary.t) list ->
  Whirl.Ir.pu ->
  outer:Whirl.Wn.t ->
  inner:Whirl.Wn.t ->
  string list
(** Arrays carrying a direction-vector (<, >) dependence in the perfect
    2-nest, which makes interchange illegal.  Empty list = legal. *)
