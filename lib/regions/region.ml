open Numeric
open Linear

type bound =
  | Bconst of int
  | Bsym of Expr.t
  | Bunknown

type stride = Sconst of int | Sunknown

type dim = { lb : bound; ub : bound; stride : stride }

type t = {
  ndims : int;
  sys : System.t;
  dims : dim list;
  exact : bool;
  clamped : bool;
  assumed : Lang.Iprop.flags;
}

type loop_ctx = {
  lc_var : Var.t;
  lc_lo : Affine.result;
  lc_hi : Affine.result;
  lc_step : int option;
}

let c_union_calls = Obs.Metrics.counter "regions.union.calls"
let c_union_many_calls = Obs.Metrics.counter "regions.union_many.calls"
let c_implies_saved = Obs.Metrics.counter "regions.union.implies_saved"

(* ------------------------------------------------------------------ *)
(* Triplet projection *)

(* Symbolic bound extraction for subscript variable [v]: given the system
   projected onto [v] plus the symbolic variables, read off a constraint
   that bounds [v] from the requested side. *)
let symbolic_bound side v projected =
  let candidates =
    List.filter_map
      (fun c ->
        let e = Constr.expr c in
        let a = Expr.coeff v e in
        if Rat.sign a = 0 then None
        else
          let rest = Expr.subst v Expr.zero e in
          let b = Expr.scale (Rat.div Rat.minus_one a) rest in
          match Constr.op c, side with
          | Constr.Eq, _ -> Some b
          | Constr.Le, `Upper when Rat.sign a > 0 -> Some b
          | Constr.Le, `Lower when Rat.sign a < 0 -> Some b
          | Constr.Le, _ -> None)
      (System.to_list projected)
  in
  match candidates with [] -> None | b :: _ -> Some b

let bound_of_side side v projected (clo, chi) =
  let const =
    match side with
    | `Lower -> Option.map (fun r -> Bconst (Rat.ceil r)) clo
    | `Upper -> Option.map (fun r -> Bconst (Rat.floor r)) chi
  in
  match const with
  | Some b -> b
  | None -> (
    match symbolic_bound side v (Lazy.force projected) with
    | Some e -> Bsym e
    | None -> Bunknown)

let triplets_of_sys ~ndims ~strides sys =
  (* indexed per dimension below; List.nth would make the loop O(ndims^2) *)
  let strides = Array.of_list strides in
  List.init ndims (fun k ->
      let v = Var.subscript k in
      let cb = System.bounds v sys in
      (* one shared projection per dimension, forced only when a side has no
         constant bound and must render symbolically (previously each side
         re-projected the full system) *)
      let projected =
        lazy
          (let keep =
             Var.Set.add v (Var.Set.filter Var.is_sym (System.vars sys))
           in
           System.project_onto keep sys)
      in
      let lb = bound_of_side `Lower v projected cb in
      let ub = bound_of_side `Upper v projected cb in
      { lb; ub; stride = strides.(k) })

let make ~ndims ~sys ~strides ~exact =
  if List.length strides <> ndims then
    invalid_arg "Region.make: strides length mismatch";
  let dims = triplets_of_sys ~ndims ~strides sys in
  { ndims; sys; dims; exact; clamped = false; assumed = Lang.Iprop.no_flags }

let mark_clamped t = if t.clamped then t else { t with clamped = true }

let set_assumed flags t =
  if Lang.Iprop.any_flag flags then
    { t with assumed = Lang.Iprop.flags_union t.assumed flags }
  else t

(* carry both provenance bits (clamp and assumed-property flags) from a
   source region onto a rebuilt one *)
let with_clamp_of src t =
  let t = if src.clamped then mark_clamped t else t in
  set_assumed src.assumed t

(* ------------------------------------------------------------------ *)
(* Construction from a reference *)

let stride_of_subscript loops = function
  | Affine.Messy -> Sunknown
  | Affine.Sparse s ->
    (* a bounded index array confines the dimension to a box; stride 1 is
       the box's (weakest, always sound) over-approximation — the same
       claim [whole] makes.  Without both bounds the dimension falls back
       to the clamp path, whose stride stays unknown like MESSY. *)
    if s.Affine.sp_lo <> None && s.Affine.sp_hi <> None then Sconst 1
    else Sunknown
  | Affine.Affine e ->
    let contributions =
      List.filter_map
        (fun lc ->
          let c = Expr.coeff lc.lc_var e in
          if Rat.sign c = 0 then None
          else
            match lc.lc_step with
            | None -> Some None
            | Some s ->
              if Rat.is_integer c then Some (Some (abs (Rat.to_int c * s)))
              else Some None)
        loops
    in
    if List.exists (fun x -> x = None) contributions then Sunknown
    else
      let g =
        List.fold_left
          (fun acc c -> match c with Some v -> Rat.gcd acc v | None -> acc)
          0 contributions
      in
      if g = 0 then Sconst 1 (* loop-invariant subscript: single element *)
      else Sconst g

(* Pigeonhole witness for an exactly-covered sparse dimension: an injective
   index array applied to [trip] distinct arguments lands on [trip] distinct
   values inside the declared box; when [trip] equals the box size, the
   accessed set IS the box.  The distinct-argument count is only recognized
   in the common shape: inner subscript [±i + c] over a single unit-step
   loop with constant bounds. *)
let sparse_distinct_args ~loops e =
  let contribs =
    List.filter_map
      (fun lc ->
        let c = Expr.coeff lc.lc_var e in
        if Rat.sign c = 0 then None else Some (lc, c))
      loops
  in
  match contribs with
  | [ (lc, c) ] when Rat.equal (Rat.abs c) Rat.one -> (
    match lc.lc_step, lc.lc_lo, lc.lc_hi with
    | Some 1, Affine.Affine lo, Affine.Affine hi
      when Expr.is_const lo && Expr.is_const hi ->
      let l = Expr.constant lo and h = Expr.constant hi in
      if Rat.is_integer l && Rat.is_integer h then
        let trip = Rat.to_int h - Rat.to_int l + 1 in
        if trip > 0 then Some trip else None
      else None
    | _ -> None)
  | _ -> None

let of_subscripts ~extents ~loops subscripts =
  let ndims = List.length subscripts in
  if List.length extents <> ndims then
    invalid_arg "Region.of_subscripts: extents length mismatch";
  let exact = ref true in
  let clamped = ref false in
  let assumed = ref Lang.Iprop.no_flags in
  let constraints = ref [] in
  let addc c = constraints := c :: !constraints in
  let extents_a = Array.of_list extents in
  let clamp_into k =
    match extents_a.(k) with
    | Some ext ->
      (* the clamp keeps the region inside the declared extent even
         though the runtime subscript might not be: an
         under-approximation in the bounds-checking direction, recorded
         in [clamped] so clients never prove safety from it *)
      clamped := true;
      let d = Expr.var (Var.subscript k) in
      addc (Constr.ge d Expr.zero);
      addc (Constr.le d (Expr.of_int (ext - 1)))
    | None -> ()
  in
  (* subscript equations *)
  List.iteri
    (fun k sub ->
      let d = Expr.var (Var.subscript k) in
      match sub with
      | Affine.Affine e -> addc (Constr.eq d e)
      | Affine.Sparse s -> (
        match s.Affine.sp_lo, s.Affine.sp_hi with
        | Some lo, Some hi ->
          (* declared value bounds box the dimension WITHOUT clamping: the
             assertion speaks about runtime values, so an In_bounds proof
             stays honest — conditional on the declaration, which the
             assumed flags record for reports and summaries *)
          List.iter addc (Constr.between d ~lo ~hi);
          assumed :=
            Lang.Iprop.flags_union !assumed
              {
                Lang.Iprop.f_bounded = true;
                f_monotonic = s.Affine.sp_monotonic;
                f_injective = s.Affine.sp_injective;
              };
          let covered =
            s.Affine.sp_injective
            &&
            match s.Affine.sp_inner with
            | Some inner ->
              sparse_distinct_args ~loops inner = Some (hi - lo + 1)
            | None -> false
          in
          if not covered then exact := false
        | _ ->
          (* partial or no value bounds: same conservative path as MESSY *)
          exact := false;
          clamp_into k)
      | Affine.Messy ->
        exact := false;
        clamp_into k)
    subscripts;
  (* loop constraints; strided loops get an auxiliary iteration counter *)
  List.iter
    (fun lc ->
      let i = Expr.var lc.lc_var in
      match lc.lc_lo, lc.lc_hi with
      | Affine.Affine lo, Affine.Affine hi -> (
        match lc.lc_step with
        | Some 1 | Some 0 ->
          addc (Constr.ge i lo);
          addc (Constr.le i hi)
        | None ->
          (* unknown step: direction assumed forward *)
          exact := false;
          addc (Constr.ge i lo);
          addc (Constr.le i hi)
        | Some s ->
          let k = Var.fresh ~name:(Var.name lc.lc_var ^ "#k") Var.Ivar in
          addc
            (Constr.eq i (Expr.add lo (Expr.monom (Rat.of_int s) k)));
          addc (Constr.ge (Expr.var k) Expr.zero);
          if s > 0 then addc (Constr.le i hi) else addc (Constr.ge i hi);
          (* with constant bounds the trip count is known exactly, which
             closes the rational/integer gap FM would otherwise leave
             (e.g. i = 0..1 step 2 reaches only 0, not 0..1) *)
          if Expr.is_const lo && Expr.is_const hi then begin
            let kmax =
              Rat.floor
                (Rat.div
                   (Rat.sub (Expr.constant hi) (Expr.constant lo))
                   (Rat.of_int s))
            in
            addc (Constr.le (Expr.var k) (Expr.of_int kmax))
          end)
      | _ ->
        (* unanalyzable loop bounds: the induction variable stays
           unconstrained and the projection will report UNPROJECTED *)
        exact := false)
    loops;
  let sys = System.of_list !constraints in
  (* eliminate every induction variable *)
  let ivars = Var.Set.filter Var.is_ivar (System.vars sys) in
  let sys = System.eliminate_all (Var.Set.elements ivars) sys in
  let strides = List.map (stride_of_subscript loops) subscripts in
  let r = make ~ndims ~sys ~strides ~exact:!exact in
  let r = if !clamped then mark_clamped r else r in
  set_assumed !assumed r

let whole ~extents =
  let ndims = List.length extents in
  let exact = ref true in
  let constraints =
    List.concat
      (List.mapi
         (fun k ext ->
           let d = Expr.var (Var.subscript k) in
           match ext with
           | Some e ->
             [ Constr.ge d Expr.zero; Constr.le d (Expr.of_int (e - 1)) ]
           | None ->
             exact := false;
             [ Constr.ge d Expr.zero ])
         extents)
  in
  make ~ndims
    ~sys:(System.of_list constraints)
    ~strides:(List.init ndims (fun _ -> Sconst 1))
    ~exact:!exact

let point coords =
  let ndims = List.length coords in
  let constraints =
    List.mapi
      (fun k c -> Constr.eq (Expr.var (Var.subscript k)) (Expr.of_int c))
      coords
  in
  make ~ndims ~sys:(System.of_list constraints)
    ~strides:(List.init ndims (fun _ -> Sconst 1))
    ~exact:true

(* ------------------------------------------------------------------ *)
(* Algebra *)

let union_strides la sa lb sb =
  match sa, sb with
  | Sconst a, Sconst b -> (
    let g = Rat.gcd a b in
    match la, lb with
    | Bconst x, Bconst y ->
      let g = Rat.gcd g (abs (x - y)) in
      if g = 0 then Sconst 1 else Sconst g
    | _ -> if g = 0 then Sconst 1 else Sconst g)
  | _ -> Sunknown

(* Weak join: constraints of one side entailed by the other.  Equalities
   are split into inequality pairs first, otherwise joining two distinct
   points would keep nothing instead of their hull. *)
let inequalities sys =
  List.concat_map
    (fun c ->
      match Constr.op c with
      | Constr.Le -> [ c ]
      | Constr.Eq ->
        let e = Constr.expr c in
        [ Constr.make e Constr.Le; Constr.make (Expr.neg e) Constr.Le ])
    (System.to_list sys)

let weak_join keep_entailed a b =
  System.of_list (keep_entailed a b @ keep_entailed b a)

let union_approx a b =
  if a.ndims <> b.ndims then invalid_arg "Region.union_approx: rank mismatch";
  Obs.Metrics.Counter.incr c_union_calls;
  let keep_entailed src other =
    let ineqs = inequalities src in
    if System.equal src other then begin
      (* joining a system with itself: [implies] is exact and complete, so
         every inequality derived from [src] is entailed by [other] — keep
         them all without a single solver query (same result by
         construction, counted as saved work) *)
      Obs.Metrics.Counter.add c_implies_saved (List.length ineqs);
      ineqs
    end
    else List.filter (fun c -> System.implies other c) ineqs
  in
  let sys = weak_join keep_entailed a.sys b.sys in
  let strides =
    List.map2
      (fun da db -> union_strides da.lb da.stride db.lb db.stride)
      a.dims b.dims
  in
  let r = make ~ndims:a.ndims ~sys ~strides ~exact:false in
  let r =
    {
      r with
      clamped = a.clamped || b.clamped;
      assumed = Lang.Iprop.flags_union a.assumed b.assumed;
    }
  in
  (* the join of two identical regions is that region, exactly *)
  if System.equal_semantic a.sys b.sys && a.dims = b.dims then
    { r with exact = a.exact && b.exact }
  else r

let union_many = function
  | [] -> invalid_arg "Region.union_many: empty list"
  | r :: rest ->
    (* [union_approx] is not associative (the weak join and the
       symbolic-bound choice depend on operand order), so the n-way join is
       defined as the left fold — byte-identical to folding by hand.  The
       win comes from the interned-id short-circuit firing per step inside
       [union_approx], which the summary cap-collapse path hits constantly
       (display-equal accesses carry the very same interned system). *)
    Obs.Metrics.Counter.incr c_union_many_calls;
    List.fold_left union_approx r rest

module Reference = struct
  let join_sys =
    weak_join (fun src other ->
        List.filter (System.Reference.implies other) (inequalities src))
end

let includes a b =
  a.ndims = b.ndims
  && (System.equal a.sys b.sys || System.includes a.sys b.sys)

(* Stride-lattice separation: when both regions are exact, every access of a
   dimension lies on the lattice { lb + stride * k }; two lattices with
   constant anchors and strides share a point iff (lb1 - lb2) is divisible
   by gcd(s1, s2).  This proves e.g. even/odd interleavings disjoint, which
   the convex systems alone cannot. *)
let lattice_disjoint_dim d1 d2 =
  match d1.lb, d1.stride, d2.lb, d2.stride with
  | Bconst l1, Sconst s1, Bconst l2, Sconst s2 when s1 > 0 && s2 > 0 ->
    let g = Rat.gcd s1 s2 in
    g > 1 && (l1 - l2) mod g <> 0
  | _ -> false

let disjoint a b =
  (* lattice test first: it is a few gcds, while System.disjoint may run a
     full elimination.  Same verdict either way — [||] is commutative. *)
  a.ndims = b.ndims
  && ((a.exact && b.exact
      && List.exists2 lattice_disjoint_dim a.dims b.dims)
     || System.disjoint a.sys b.sys)

let intersects a b = a.ndims = b.ndims && not (disjoint a b)

let dim_point_count d =
  match d.lb, d.ub, d.stride with
  | Bconst l, Bconst u, Sconst s when s > 0 ->
    if u < l then Some 0 else Some (((u - l) / s) + 1)
  | _ -> None

let point_count t =
  List.fold_left
    (fun acc d ->
      match acc, dim_point_count d with
      | Some a, Some b -> Some (a * b)
      | _ -> None)
    (Some 1) t.dims

let contains_point t coords =
  if List.length coords <> t.ndims then false
  else
    let valuation =
      let tbl = Hashtbl.create 8 in
      List.iteri (fun k c -> Hashtbl.add tbl (Var.id (Var.subscript k)) c) coords;
      fun v ->
        match Hashtbl.find_opt tbl (Var.id v) with
        | Some c -> Rat.of_int c
        | None -> raise Not_found
    in
    let convex_ok =
      List.for_all
        (fun c ->
          match Constr.holds valuation c with
          | ok -> ok
          | exception Not_found -> true (* symbolic: cannot refute *))
        (System.to_list t.sys)
    in
    convex_ok
    && List.for_all2
         (fun d c ->
           match d.lb, d.stride with
           | Bconst l, Sconst s when s > 1 -> (c - l) mod s = 0
           | _ -> true)
         t.dims coords

let map_vars f t =
  (* Structural rename: the triplet view is carried over (with its bound
     expressions renamed), NOT recomputed, so that a region reloaded from
     the engine's cache renders byte-identically to the original. *)
  let map_bound = function
    | Bconst _ as b -> b
    | Bsym e -> Bsym (Expr.map_vars f e)
    | Bunknown -> Bunknown
  in
  {
    t with
    sys = System.map_vars f t.sys;
    dims =
      List.map
        (fun d -> { d with lb = map_bound d.lb; ub = map_bound d.ub })
        t.dims;
  }

let detach d t = { t with sys = d t.sys }

let subst_sym substs t =
  let sys =
    List.fold_left
      (fun sys (v, e) -> System.subst v e sys)
      t.sys substs
  in
  let strides = List.map (fun d -> d.stride) t.dims in
  with_clamp_of t (make ~ndims:t.ndims ~sys ~strides ~exact:t.exact)

let close_under_loops loops t =
  let ivars = Var.Set.filter Var.is_ivar (System.vars t.sys) in
  if Var.Set.is_empty ivars then t
  else begin
    let exact = ref t.exact in
    let constraints = ref (System.to_list t.sys) in
    let addc c = constraints := c :: !constraints in
    List.iter
      (fun lc ->
        if Var.Set.mem lc.lc_var ivars then begin
          let i = Expr.var lc.lc_var in
          match lc.lc_lo, lc.lc_hi with
          | Affine.Affine lo, Affine.Affine hi ->
            (* stride of the caller loop is not folded into the region's
               per-dimension strides here; bounds stay exact, strides keep
               the callee's values, so mark approximate unless unit step *)
            addc (Constr.ge i lo);
            addc (Constr.le i hi);
            (match lc.lc_step with Some 1 -> () | _ -> exact := false)
          | _ -> exact := false
        end)
      loops;
    let sys = System.of_list !constraints in
    let sys = System.eliminate_all (Var.Set.elements ivars) sys in
    let strides = List.map (fun d -> d.stride) t.dims in
    with_clamp_of t (make ~ndims:t.ndims ~sys ~strides ~exact:!exact)
  end

let shift_dim k off t =
  if off = 0 then t
  else begin
    (* d_k := d_k - off in every constraint shifts the region by +off *)
    let v = Var.subscript k in
    let sys =
      System.subst v (Expr.add (Expr.var v) (Expr.of_int (-off))) t.sys
    in
    let strides = List.map (fun d -> d.stride) t.dims in
    with_clamp_of t (make ~ndims:t.ndims ~sys ~strides ~exact:t.exact)
  end

let approximate t = { t with exact = false }

let dim_list t = t.dims
let is_exact t = t.exact
let is_clamped t = t.clamped
let assumed_flags t = t.assumed
let is_assumed t = Lang.Iprop.any_flag t.assumed

(* ------------------------------------------------------------------ *)
(* Extent-vs-region queries (the bounds-checking client's core question) *)

type extent_verdict = In_bounds | Out_of_bounds | Unknown_bounds

let extent_check ~extents t =
  if List.length extents <> t.ndims then
    invalid_arg "Region.extent_check: rank mismatch";
  (* an empty region describes no access at all: trivially in bounds *)
  if not (System.feasible t.sys) then In_bounds
  else begin
    let extents_a = Array.of_list extents in
    let dims_a = Array.of_list t.dims in
    let all_in = ref true in
    let some_out = ref false in
    for k = 0 to t.ndims - 1 do
      let d = Expr.var (Var.subscript k) in
      (* proven inside: 0 <= d <= ext-1 entailed by the system.

         The triplet's constant bounds decide most of these queries
         without a solver call: [Bconst l] is ceil of the exact rational
         infimum of [d] over the system and [Bconst u] the floor of its
         supremum ([System.bounds] projections), so e.g.
         [implies (d >= 0)] — infeasibility of [sys /\ d <= -1], i.e.
         inf > -1 — holds exactly when [l >= 0].  Each equivalence below
         is exact in both directions, so verdicts are identical to the
         implies-only path. *)
      let { lb; ub; _ } = dims_a.(k) in
      let low_in =
        match lb with
        | Bconst l -> l >= 0
        | Bsym _ | Bunknown -> System.implies t.sys (Constr.ge d Expr.zero)
      in
      let low_out =
        match ub with
        | Bconst u -> u < 0
        | Bsym _ | Bunknown ->
          System.implies t.sys (Constr.le d (Expr.of_int (-1)))
      in
      let high_in, high_out =
        match extents_a.(k) with
        | Some e ->
          let high_in =
            match ub with
            | Bconst u -> u <= e - 1
            | Bsym _ | Bunknown ->
              System.implies t.sys (Constr.le d (Expr.of_int (e - 1)))
          in
          let high_out =
            match lb with
            | Bconst l -> l >= e
            | Bsym _ | Bunknown ->
              System.implies t.sys (Constr.ge d (Expr.of_int e))
          in
          (high_in, high_out)
        | None -> (false, false)
      in
      if not (low_in && high_in) then all_in := false;
      if low_out || high_out then some_out := true
    done;
    (* entirely-out on one dimension condemns every access the region
       describes, so over-approximation does not weaken the verdict;
       proving In_bounds additionally requires the region not to have been
       clamped (the clamp under-approximates in exactly this direction) *)
    if !some_out then Out_of_bounds
    else if !all_in && not t.clamped then In_bounds
    else Unknown_bounds
  end

let bound_equal a b =
  match a, b with
  | Bconst x, Bconst y -> x = y
  | Bsym e, Bsym f -> Expr.equal e f
  | Bunknown, Bunknown -> true
  | (Bconst _ | Bsym _ | Bunknown), _ -> false

let dim_equal a b =
  bound_equal a.lb b.lb && bound_equal a.ub b.ub && a.stride = b.stride

let equal_display a b =
  a.ndims = b.ndims && List.for_all2 dim_equal a.dims b.dims

let pp_bound ppf = function
  | Bconst n -> Format.fprintf ppf "%d" n
  | Bsym e -> Expr.pp ppf e
  | Bunknown -> Format.pp_print_string ppf "*"

let pp_stride ppf = function
  | Sconst n -> Format.fprintf ppf "%d" n
  | Sunknown -> Format.pp_print_string ppf "*"

let pp_dim ppf d =
  Format.fprintf ppf "%a:%a:%a" pp_bound d.lb pp_bound d.ub pp_stride d.stride

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_dim)
    t.dims
