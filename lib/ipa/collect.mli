(** IPL — the local information-gathering phase (paper, Section IV-A: "IPL
    first gathers data flow analysis and procedure summary information from
    each compilation unit, and the information is summarized for each
    procedure").

    Walks each PU's WHIRL tree once (Algorithm 1's inner loop), maintaining
    the enclosing-loop context, and produces:

    - one access record per array reference ([ILOAD]/[ISTORE] of an [ARRAY],
      whole-array [LDA] uses) with its projected region;
    - one FORMAL record per formal array;
    - one PASSED record per array argument at each call site;
    - a call-site descriptor per [OPR_CALL] for the IPA translation phase. *)

type access = {
  ac_st : int;  (** WN st code (local, or global-encoded) *)
  ac_mode : Regions.Mode.t;
  ac_region : Regions.Region.t;
  ac_loc : Lang.Loc.t;
  ac_via : string option;
      (** [Some callee] when the record was propagated from a call *)
  ac_sparse : string option;
      (** [Some idx] when some subscript reads through index array [idx]
          (the runtime-inspector label for accesses that stay undecidable) *)
}

type callsite_arg =
  | Arg_array_whole of int
  | Arg_array_elem of int * Regions.Affine.result list
      (** zero-based row-major element coordinates *)
  | Arg_scalar_ref of int
  | Arg_value of Regions.Affine.result

type site = {
  s_callee : string;
  s_args : callsite_arg list;
  s_loops : (int * Regions.Region.loop_ctx) list;
      (** loops enclosing the call, innermost first, with the induction
          variable's st code *)
  s_loc : Lang.Loc.t;
}

type pu_info = {
  p_pu : Whirl.Ir.pu;
  p_accesses : access list;
  p_sites : site list;
}

val sym_var :
  m:Whirl.Ir.module_ -> pu:string -> st:int -> name:string -> Linear.Var.t
(** The stable symbolic variable standing for a scalar; global-encoded
    symbols share one variable across all procedures of the module.  Keyed
    by the module id, so independently analyzed modules never share
    variables. *)

val sym_info : Linear.Var.t -> (string * int) option
(** Inverse of {!sym_var}: the (procedure, st) a symbolic variable stands
    for; the procedure is [""] for globals.  [None] for variables that were
    not created through the registry. *)

val extents_of : Whirl.Ir.module_ -> Whirl.Ir.pu -> int -> int option list
(** Row-major declared extents of an array symbol ([None] per unknown
    dimension). *)

val intern_module_syms : Whirl.Ir.module_ -> unit
(** Pre-register the symbolic variables of every scalar symbol of the
    module (globals first, then per-PU locals, in table order).  The engine
    calls this before fanning {!run_pu} out across domains so that symbolic
    variable ids are independent of the parallel schedule — which is what
    makes parallel output byte-identical to serial output. *)

type shapes
(** A run's shape memo: one region per distinct access shape (the extents,
    the enclosing loops' bounds and steps, and the subscripts, with the
    induction variables written as nesting positions).  Created per engine
    run and shared by the domains collecting its PUs; a hit returns the
    very region a miss would build. *)

val shapes : unit -> shapes

val shapes_requested : shapes -> int
(** Regions collection asked the memo for (hits plus misses). *)

val shapes_distinct : shapes -> int
(** Distinct shapes stored: the memo's size.  Two domains racing on one
    shape store it once, so this is deterministic at any [--jobs]. *)

val run_pu : shapes -> Whirl.Ir.module_ -> Whirl.Ir.pu -> pu_info
(** Collection for a single PU (one unit of the engine's parallel work
    queue).  Only touches shared state through the guarded symbolic-variable
    registry and the guarded shape memo. *)

val run_body : Whirl.Ir.module_ -> Whirl.Ir.pu -> Whirl.Wn.t -> pu_info
(** Walks one statement subtree with an empty loop context: enclosing
    induction variables are treated as symbolic scalars, so the returned
    regions keep them free.  Used by the loop-parallelism test, which wants
    to compare iterations [i] and [i'] of the same loop. *)

val scalar_defs : Whirl.Ir.module_ -> Whirl.Ir.pu -> Whirl.Wn.t -> int list
(** st codes of scalars stored to ([STID]) anywhere in the subtree —
    potential privatization/reduction candidates for the parallelizer. *)

val loop_bounds_for :
  Whirl.Ir.module_ ->
  Whirl.Ir.pu ->
  Whirl.Wn.t ->
  Linear.Var.t ->
  Linear.Constr.t list
(** Direction-aware bound constraints of a DO loop header on the given
    variable: for a positive step, [lo <= v <= hi]; for a negative step the
    roles swap; with an unknown step sign only constant bounds are used (as
    [min <= v <= max]), otherwise nothing — always a sound over-approximation
    of the iteration space.  The dependence tests rely on this: treating a
    downward loop as [lo <= v <= hi] would make its iteration space empty
    and every dependence vacuously absent. *)
