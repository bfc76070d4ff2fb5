(** Per-procedure control-flow graphs.

    Dragon's first version exported control-flow analysis results through
    the CFG-IPL module (paper, Section IV-A); this is the equivalent: built
    from structured high-level WHIRL, exported as [.cfg] files, rendered in
    DOT and ASCII by the Dragon views. *)

type block = {
  id : int;
  n_stmts : int;
      (** how many straight-line statements (no control flow) the block
          holds: the CFG keeps no WN, so a stored or carried CFG is small
          and needs no body *)
  label : string;           (** "entry", "exit", "then", "loop-head", ... *)
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  proc : string;
  blocks : block array;
  entry : int;
  exit_ : int;
}

val build : Whirl.Ir.pu -> t
(** Structured construction: every DO_LOOP gets a head block with a back
    edge, every IF a join block; RETURN statements edge to exit.  Reads
    the PU's body ({!Whirl.Ir.body}). *)

val block_count : t -> int
val edge_count : t -> int

val reverse_postorder : t -> int list
(** From entry; unreachable blocks excluded. *)

val dominators : t -> int array
(** [idom.(b)] is the immediate dominator of [b] (entry maps to itself);
    unreachable blocks map to [-1].  Cooper-Harvey-Kennedy iteration. *)

val dominates : t -> int -> int -> bool

val to_dot : t -> string
val to_ascii : t -> string
val pp : Format.formatter -> t -> unit
