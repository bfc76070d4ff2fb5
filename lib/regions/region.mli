(** Convex array regions (the paper's "Regions" method, Triolet/Creusillet
    lineage) together with their triplet-notation projection
    [LB:UB:Stride].

    A region over an [n]-dimensional array constrains the canonical
    subscript variables [Linear.Var.subscript 0 .. n-1] (internal row-major,
    zero-based coordinates — the WHIRL ARRAY convention).  Symbolic program
    values may appear free in the constraints; loop induction variables are
    eliminated by Fourier-Motzkin projection at construction time.

    Strides are not expressible in a convex system, so they are carried
    alongside, computed from the linearized subscripts and loop steps
    (gcd of |coefficient * step| over the induction variables involved) —
    this is what lets the tool report exact strides where the earlier Dragon
    normalized them away. *)

type bound =
  | Bconst of int
  | Bsym of Linear.Expr.t  (** bound depends on symbolic program values *)
  | Bunknown               (** the paper's MESSY / UNPROJECTED *)

type stride = Sconst of int | Sunknown

type dim = { lb : bound; ub : bound; stride : stride }

type t = private {
  ndims : int;
  sys : Linear.System.t;
  dims : dim list;  (** internal (row-major) order, length [ndims] *)
  exact : bool;     (** false once any approximation was taken *)
  clamped : bool;
      (** true when some step {e under}-approximated the runtime access set
          by clamping it into the declared extents (MESSY subscripts,
          opaque-callee summaries).  Such a region still over-approximates
          every {e valid} access, but can no longer witness that all
          runtime accesses are in bounds. *)
  assumed : Lang.Iprop.flags;
      (** which declared index-array properties this region leaned on
          (bounded / monotonic / injective); {!Lang.Iprop.no_flags} for a
          purely derived region.  Sticky through joins and translation, so
          bounds clients can report declaration-conditional proofs
          separately. *)
}

(** Description of one enclosing loop for {!of_subscripts}. *)
type loop_ctx = {
  lc_var : Linear.Var.t;        (** the induction variable *)
  lc_lo : Affine.result;
  lc_hi : Affine.result;
  lc_step : int option;         (** [None] = unknown (non-constant) step *)
}

val of_subscripts :
  extents:int option list ->
  loops:loop_ctx list ->
  Affine.result list ->
  t
(** Region of a single reference.  [extents] are the (row-major) declared
    dimension extents used to clamp MESSY subscripts; the subscript list
    gives one affine result per dimension.

    A {!Affine.Sparse} subscript with both declared value bounds becomes an
    unclamped box [lo..hi] (the declaration over-approximates the runtime
    set, so safety proofs remain available — flagged in [assumed]); with an
    injective declaration and an inner subscript covering exactly the box
    ([trip count = hi-lo+1], the pigeonhole argument) the dimension is even
    exact.  Sparse subscripts missing a bound fall back to the MESSY
    clamp. *)

val make :
  ndims:int -> sys:Linear.System.t -> strides:stride list -> exact:bool -> t
(** Rebuild a region from an arbitrary system (used by the interprocedural
    translation); triplets are recomputed by projection.  The result is not
    clamped; apply {!mark_clamped} when the source region was. *)

val whole : extents:int option list -> t
(** The entire array: what a whole-array argument or an unanalyzable
    reference summarizes to.  Compose with {!mark_clamped} when the
    underlying accesses are unknown (opaque callee), so bounds clients
    cannot read the clamp back as proof of safety. *)

val point : int list -> t
(** Single concrete element. *)

val union_approx : t -> t -> t
(** Convex over-approximation of the union: keeps the constraints of each
    operand the other one entails (the paper: "the union of regions is
    approximated since in some cases it does not form a convex hull").
    Strides combine by gcd, including the lower-bound phase difference. *)

val union_many : t list -> t
(** Left fold of {!union_approx} over the list (which is exactly its
    definition — the approximate join is not associative, so no tree
    reduction is attempted).  The n-way entry point exists so callers
    collapsing whole buckets at once go through the interned-system
    short-circuit and the [regions.union_many.calls] metric.
    @raise Invalid_argument on the empty list. *)

(** The join's constraint system computed the slow, obvious way: every
    inequality filtered through {!Linear.System.Reference.implies}, with no
    interned-id short-circuit and no memo.  A test and bench oracle only:
    [(union_approx a b).sys] equals [Reference.join_sys a.sys b.sys]. *)
module Reference : sig
  val join_sys : Linear.System.t -> Linear.System.t -> Linear.System.t
end

val includes : t -> t -> bool
(** Convex inclusion (ignores strides, hence conservative: [includes a b]
    guarantees every element of [b] is inside [a]'s convex hull). *)

val disjoint : t -> t -> bool
(** No shared element even ignoring strides — the sound direction for the
    parallelization test. *)

val intersects : t -> t -> bool

val point_count : t -> int option
(** Number of elements described by the triplet view when fully constant. *)

val contains_point : t -> int list -> bool
(** Membership in the convex system {e and} the per-dimension stride
    lattice (for constant triplet dims). *)

val subst_sym : (Linear.Var.t * Linear.Expr.t) list -> t -> t
(** Substitute symbolic variables (formal-to-actual translation). *)

val reintern :
  expr:(Linear.Expr.t -> Linear.Expr.t) ->
  sys:(Linear.System.t -> Linear.System.t) ->
  t ->
  t
(** [r] with its system passed through [sys] and its symbolic triplet
    bounds through [expr], preserving (not recomputing) the triplet view.
    The engine cache re-interns a deserialized region with it, so it
    renders byte-identically to the original: through
    {!Linear.Expr.reintern}/{!Linear.System.reintern} when the region's
    variables kept their ids, through [map_vars] when they moved. *)

val detach : (Linear.System.t -> Linear.System.t) -> t -> t
(** [detach d r] is [r] over [d] of its system, where [d] is
    {!Linear.System.detach} or a wrapper that detaches each system once:
    what the engine cache marshals.  {!reintern} re-interns a loaded
    one. *)

val close_under_loops : loop_ctx list -> t -> t
(** After a formal-to-actual substitution a region may mention the caller's
    induction variables; this conjoins the given loop constraints and
    projects those variables away — the last step of translating a callee
    summary at a call site that sits inside loops. *)

val shift_dim : int -> int -> t -> t
(** [shift_dim k off r]: translate dimension [k] by [off] elements
    (element-argument passing re-bases the callee's region). *)

val approximate : t -> t
(** Same region, with the exact flag cleared — used when a translation step
    had to over-approximate (element-argument passing, rank mismatch). *)

val mark_clamped : t -> t
(** Same region, with the clamped flag set — used when a translation step
    fell back to the declared extents without knowing the real accesses. *)

val dim_list : t -> dim list
val is_exact : t -> bool

val is_clamped : t -> bool
(** Whether any construction or translation step clamped the region into
    the declared extents (see {!type:t}). *)

val assumed_flags : t -> Lang.Iprop.flags
val is_assumed : t -> bool
(** Whether the region leans on declared index-array properties. *)

val set_assumed : Lang.Iprop.flags -> t -> t
(** Union the given provenance flags in (summary reload re-applies the
    flags recorded in .ipl/.rgn rows). *)

type extent_verdict =
  | In_bounds      (** every access the region admits is provably valid *)
  | Out_of_bounds  (** the region is non-empty and some dimension lies
                       entirely outside the declared extent — every access
                       it describes faults *)
  | Unknown_bounds (** neither proof went through: residual runtime check *)

val extent_check : extents:int option list -> t -> extent_verdict
(** Compare a region against the (row-major, zero-based) declared extents
    with the packed Fourier-Motzkin [implies] path.  [In_bounds] needs
    [0 <= d_k <= extent_k - 1] entailed for every dimension {e and} an
    unclamped region; [Out_of_bounds] needs some known-extent dimension
    entailed entirely outside ([d_k <= -1] or [d_k >= extent_k]) — sound
    even on over-approximated regions.  Every entailment is exact; what
    neither proves is [Unknown_bounds].
    @raise Invalid_argument on rank mismatch. *)

val equal_display : t -> t -> bool
(** Same triplet view (used to merge duplicate rows). *)

val pp_bound : Format.formatter -> bound -> unit
val pp_stride : Format.formatter -> stride -> unit
val pp : Format.formatter -> t -> unit
(** Triplet notation: [(lb:ub:stride, ...)]. *)
