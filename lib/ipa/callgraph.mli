(** The IPA call graph: "each node in this graph represents a procedure and
    the caller-callee relationships are expressed by the edges.  This call
    graph should be traversed to extract the necessary array analysis
    information" (paper, Section IV-A). *)

type callsite = {
  cs_caller : string;
  cs_callee : string;
  cs_loc : Lang.Loc.t;
  cs_wn : Whirl.Wn.t;  (** the OPR_CALL node *)
}

type t

val build : Whirl.Ir.module_ -> t

val procs : t -> string list
(** Definition order. *)

val callsites : t -> callsite list
val callees : t -> string -> string list
(** Unique callees in callsite order. *)

val callers : t -> string -> string list
val node_count : t -> int
val edge_count : t -> int
(** Unique (caller, callee) pairs. *)

val roots : t -> string list
(** Procedures nobody calls (typically the main program). *)

val preorder : t -> string list
(** Depth-first pre-order from the roots — the traversal of Algorithm 1. *)

val sccs : t -> string list list
(** Tarjan strongly-connected components, in reverse topological order
    (callees before callers) — the bottom-up summary order.  Computed once
    at {!build} time (formerly re-run on every call); procedures that are
    called but never defined appear as singleton components. *)

val scc_levels : t -> int array
(** Per component (indexed like {!sccs}): depth in the condensation DAG —
    0 for leaf components, otherwise one more than the deepest callee
    component.  Components on the same level share no caller-callee edge,
    which is what makes them safe to summarize in parallel. *)

val is_recursive : t -> string -> bool
(** Member of a multi-node SCC, or self-calling (O(1)). *)

val to_dot : t -> string
val to_ascii_tree : t -> string
(** Indented tree rooted at the mains, Dragon-style (Fig 11). *)
