open Numeric

(* Hash-consed canonical form: [cs] is sorted by Constr.compare,
   deduplicated, free of trivially-true members; [id] is the intern id of
   that constraint list, so equality of systems is one integer comparison.
   [pk] caches the packed-row translation of [cs] (immutable once built): it
   is computed at most once per process instead of once per query.  [memo]
   is the system's solver memo record (below), the only place any answer or
   learned fact about the system is kept.

   Ids are allocation-order dependent (parallel domains intern in racy
   order), so nothing rendered, persisted or ordered may depend on them:
   [compare]-based sorting stays structural in Constr/Expr, and the
   engine's cache digests stay content-based. *)

type pk_state =
  | Pk_unknown
  | Pk_rows of Packed.t
  | Pk_unpackable  (* non-integer coefficient or overflow at pack time *)

(* A memoized answer together with its first-arrival claim: [Claimed] means
   some query has reached the key (and counted the miss) but no answer is
   stored yet — it is still computing. *)
type answer = Unseen | Claimed | Yes | No

module Imap = Map.Make (Int)

(* The per-system memo record, created lazily by the first query that needs
   it.  A record from an older [epoch] than the current one reads as absent,
   which is all [clear_cache] has to do.  [implies] maps constraint ids to
   answer cells; the map is immutable and swapped by CAS when a cell is
   added, so the hit path takes no lock and allocates nothing.  [ctx] holds
   the learned facts, created on the first learned query (and counted
   then). *)
type memo = {
  epoch : int;
  feas : answer Atomic.t;
  implies : answer Atomic.t Imap.t Atomic.t;
  ctx : Context.t option Atomic.t;
}

type t = {
  id : int;
  cs : Constr.t list;
  pk : pk_state Atomic.t;
  memo : memo Atomic.t;
}

let epoch = Atomic.make 0

let fresh_memo epoch =
  { epoch; feas = Atomic.make Unseen; implies = Atomic.make Imap.empty;
    ctx = Atomic.make None }

(* Older than every epoch, so [memo] replaces it before any use. *)
let no_memo = fresh_memo (-1)

module I = Intern.Make (struct
  type nonrec t = t

  let equal a b = List.equal Constr.equal a.cs b.cs

  let hash t =
    List.fold_left (fun acc c -> Intern.mix acc (Constr.id c)) 0x2545f491 t.cs

  let with_id t id =
    { t with id; pk = Atomic.make Pk_unknown; memo = Atomic.make no_memo }

  let name = "system"
end)

(* Lookup candidates and detached systems share these cells; [with_id]
   gives each canonical system its own.  Neither kind is ever queried, so
   the shared cells are never written, and a Marshal image of many
   detached systems stores them once. *)
let candidate_pk = Atomic.make Pk_unknown
let candidate_memo = Atomic.make no_memo

let detach t = { t with pk = candidate_pk; memo = candidate_memo }

(* [cs] must already be in canonical (normalized) form. *)
let intern_norm cs =
  I.intern { id = -1; cs; pk = candidate_pk; memo = candidate_memo }

let false_constraint = Constr.make (Expr.of_int 1) Constr.Le

(* List-level canonicalization.  The eliminator pipeline below works on
   plain constraint lists and interns only at the public API boundary, so
   intermediate Fourier-Motzkin systems do not pay an intern round-trip. *)
let norm_l cs =
  let cs = List.filter (fun c -> Constr.is_trivial c <> Some true) cs in
  if List.exists (fun c -> Constr.is_trivial c = Some false) cs then
    [ false_constraint ]
  else List.sort_uniq Constr.compare cs

let of_list cs = intern_norm (norm_l cs)

let top = of_list []
let bottom = of_list [ false_constraint ]

let to_list t = t.cs
let id t = t.id
let equal a b = a.id = b.id
let add c t = of_list (c :: t.cs)
let meet a b = of_list (List.rev_append a.cs b.cs)
let size t = List.length t.cs

let vars_l cs =
  List.fold_left
    (fun acc c -> List.fold_left (fun s v -> Var.Set.add v s) acc (Constr.vars c))
    Var.Set.empty cs

let vars t = vars_l t.cs

let subst v e t = of_list (List.map (Constr.subst v e) t.cs)

let reintern constr t = intern_norm (List.map constr t.cs)

(* Fourier-Motzkin step.  An equality mentioning [v] gives an exact
   substitution; otherwise lower bounds (coeff < 0) pair with upper bounds
   (coeff > 0).

   This eliminator also backs [project_onto]/[bounds]/[sample], whose
   results are rendered into .rgn files — it stays the single source of
   truth for anything output-sensitive.  Only answer-only queries below go
   through the packed fast path. *)
let elim_l v cs =
  let mentions, free = List.partition (Constr.mem v) cs in
  match
    List.find_opt (fun c -> Constr.op c = Constr.Eq) mentions
  with
  | Some e ->
    let c = Expr.coeff v (Constr.expr e) in
    (* v = -(rest)/c *)
    let rest = Expr.subst v Expr.zero (Constr.expr e) in
    let solution = Expr.scale (Rat.div Rat.minus_one c) rest in
    let others = List.filter (fun c -> not (Constr.equal c e)) mentions in
    norm_l (free @ List.map (Constr.subst v solution) others)
  | None ->
    let uppers, lowers =
      List.partition (fun c -> Rat.sign (Expr.coeff v (Constr.expr c)) > 0) mentions
    in
    let combined =
      List.concat_map
        (fun lo ->
          let cl = Expr.coeff v (Constr.expr lo) in
          List.map
            (fun up ->
              let cu = Expr.coeff v (Constr.expr up) in
              (* cl < 0 < cu: cu*lo_expr - cl*up_expr removes v *)
              let e =
                Expr.sub
                  (Expr.scale cu (Constr.expr lo))
                  (Expr.scale cl (Constr.expr up))
              in
              Constr.make e Constr.Le)
            uppers)
        lowers
    in
    norm_l (free @ combined)

let eliminate_all_l vs cs = List.fold_left (fun cs v -> elim_l v cs) cs vs

let eliminate v t = intern_norm (elim_l v t.cs)

let eliminate_all vs t = intern_norm (eliminate_all_l vs t.cs)

let project_onto_l keep cs =
  let doomed = Var.Set.diff (vars_l cs) keep in
  eliminate_all_l (Var.Set.elements doomed) cs

let project_onto_raw keep t = intern_norm (project_onto_l keep t.cs)

(* The exact rational eliminator, kept verbatim as the reference answer for
   every fast path below (and exposed as [Reference.feasible] for
   differential tests and before/after benchmarking). *)
let ref_feasible_l cs =
  let cs = eliminate_all_l (Var.Set.elements (vars_l cs)) cs in
  not (List.exists (fun c -> Constr.is_trivial c = Some false) cs)

(* Constant bounds on [v] once every constraint mentions only [v]. *)
let local_bounds_l v cs =
  List.fold_left
    (fun (lo, hi) c ->
      let e = Constr.expr c in
      let cv = Expr.coeff v e in
      if Rat.sign cv = 0 then (lo, hi)
      else
        let b = Rat.div (Rat.neg (Expr.constant e)) cv in
        let tighten_lo lo = match lo with
          | None -> Some b
          | Some l -> Some (Rat.max l b)
        and tighten_hi hi = match hi with
          | None -> Some b
          | Some h -> Some (Rat.min h b)
        in
        match Constr.op c with
        | Constr.Eq -> (tighten_lo lo, tighten_hi hi)
        | Constr.Le ->
          if Rat.sign cv > 0 then (lo, tighten_hi hi) else (tighten_lo lo, hi))
    (None, None) cs

let bounds_raw v t =
  let cs = project_onto_l (Var.Set.singleton v) t.cs in
  if List.exists (fun c -> Constr.is_trivial c = Some false) cs then
    (* infeasible system: conventionally empty bounds *)
    (Some Rat.one, Some Rat.zero)
  else local_bounds_l v cs

(* Negation of [e <= 0] over integer points (integer coefficients assured by
   Constr normalization) is [1 - e <= 0]. *)
let negations c =
  let e = Constr.expr c in
  match Constr.op c with
  | Constr.Le -> [ Constr.make (Expr.add_const Rat.one (Expr.neg e)) Constr.Le ]
  | Constr.Eq ->
    [ Constr.make (Expr.add_const Rat.one (Expr.neg e)) Constr.Le;
      Constr.make (Expr.add_const Rat.one e) Constr.Le ]

let ref_implies t c =
  List.for_all
    (fun n -> not (ref_feasible_l (norm_l (n :: t.cs))))
    (negations c)

let ref_includes a b = List.for_all (fun c -> ref_implies b c) a.cs
let ref_disjoint a b = not (ref_feasible_l (norm_l (List.rev_append a.cs b.cs)))
let ref_equal_semantic a b = ref_includes a b && ref_includes b a

(* ---------- fast query layer ---------- *)

(* Oracle scope: inside [Reference.run] every answer-only query routes
   through the reference eliminator and the memo layers are bypassed.  An
   in-process test and bench switch only — production never sets it. *)
let use_reference = Atomic.make false

(* Small-system threshold: at or below this [query_cost], packed setup
   (pack + box build + row allocation) is not worth paying and [feasible]
   routes the query straight to the reference eliminator.  A threshold
   sweep over the NAS LU region systems put the crossover at cost 2
   (single-row systems), with larger values a mild pessimization.  Each
   routing is recorded in [Solver_stats.small_runs]. *)
let small_threshold = 2

let query_cost t = List.length t.cs * (1 + Var.Set.cardinal (vars t))

(* Packed rows, computed once per interned system.  Rows are immutable
   after [Packed.pack]; a racing duplicate compute stores an equivalent
   value, so a plain atomic set suffices.  [None] = not packable (cached
   too).  [Packed.pack] maintains no Solver_stats counters, so caching it
   does not change any counted totals. *)
let packed_rows t =
  match Atomic.get t.pk with
  | Pk_rows rows -> Some rows
  | Pk_unpackable -> None
  | Pk_unknown -> (
    match Packed.pack t.cs with
    | rows ->
      Atomic.set t.pk (Pk_rows rows);
      Some rows
    | exception (Packed.Not_packable | Rat.Overflow) ->
      Atomic.set t.pk Pk_unpackable;
      None)

(* The system's memo record for the current epoch, replacing a stale one. *)
let rec memo t =
  let m = Atomic.get t.memo in
  let e = Atomic.get epoch in
  if m.epoch >= e then m
  else
    let m' = fresh_memo e in
    if Atomic.compare_and_set t.memo m m' then m' else memo t

(* First-arrival claim on a feasible answer cell: [true] for exactly one
   caller per system and epoch, however the pool schedules the queries. *)
let claim cell =
  match Atomic.get cell with
  | Unseen -> Atomic.compare_and_set cell Unseen Claimed
  | Claimed | Yes | No -> false

let context t =
  let m = memo t in
  match Atomic.get m.ctx with
  | Some ctx -> ctx
  | None ->
    let ctx = Context.create () in
    if Atomic.compare_and_set m.ctx None (Some ctx) then begin
      Solver_stats.ctx_context ();
      ctx
    end
    else Option.get (Atomic.get m.ctx)

let clear_cache () = Atomic.incr epoch

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Latency histograms, one per (query kind, decision tag): [hit] answered
   from the memo, [prefilter] decided by a box/syntactic check, [eliminated]
   paid for an elimination (packed FM or the reference eliminator).
   Observation is gated on [Obs.Metrics.enabled] at the call sites, so with
   metrics off the only cost left in [implies]/[disjoint] is one atomic
   load. *)
let h_feasible_hit = Obs.Metrics.histogram "solver.feasible.hit.ns"
let h_feasible_prefilter = Obs.Metrics.histogram "solver.feasible.prefilter.ns"
let h_feasible_eliminated =
  Obs.Metrics.histogram "solver.feasible.eliminated.ns"
let h_implies_hit = Obs.Metrics.histogram "solver.implies.hit.ns"
let h_implies_prefilter = Obs.Metrics.histogram "solver.implies.prefilter.ns"
let h_implies_eliminated = Obs.Metrics.histogram "solver.implies.eliminated.ns"
let h_disjoint_prefilter = Obs.Metrics.histogram "solver.disjoint.prefilter.ns"
let h_disjoint_eliminated =
  Obs.Metrics.histogram "solver.disjoint.eliminated.ns"

(* Packed feasibility, exact, so the answer always equals
   [ref_feasible_l].  Overflow and unpackable coefficients fall back to the
   reference eliminator.  Also returns which histogram the query belongs
   to: [`Prefilter] when the box check decided it, [`Eliminated] when an
   eliminator ran. *)
let compute_feasible t =
  let fallback () =
    Solver_stats.overflow_fallback ();
    Solver_stats.reference_run ();
    (ref_feasible_l t.cs, `Eliminated)
  in
  if query_cost t <= small_threshold then begin
    (* tiny system: packed setup costs more than the reference eliminator
       spends solving it outright *)
    Solver_stats.small_run ();
    (ref_feasible_l t.cs, `Eliminated)
  end
  else
  match packed_rows t with
  | None -> fallback ()
  | Some rows -> (
    try
      match Packed.box_of rows with
      | None ->
        Solver_stats.box_refutation ();
        (false, `Prefilter)
      | Some _ -> (Packed.feasible rows, `Eliminated)
    with Packed.Not_packable | Rat.Overflow -> fallback ())

let feasible_hist = function
  | `Hit -> h_feasible_hit
  | `Prefilter -> h_feasible_prefilter
  | `Eliminated -> h_feasible_eliminated

let feasible t =
  Solver_stats.query ();
  if Atomic.get use_reference then begin
    Solver_stats.reference_run ();
    let t0 = now_ns () in
    let r = ref_feasible_l t.cs in
    let ns = now_ns () - t0 in
    Solver_stats.add_reference_ns ns;
    if Obs.Metrics.enabled () then Obs.Hist.observe h_feasible_eliminated ns;
    r
  end
  else begin
    let t0 = now_ns () in
    let m = memo t in
    let r, tag =
      match Atomic.get m.feas with
      | Yes ->
        Solver_stats.cache_hit ();
        (true, `Hit)
      | No ->
        Solver_stats.cache_hit ();
        (false, `Hit)
      | Unseen | Claimed ->
        (* the first query to claim this system counts a miss (and
           computes loudly); a racing one recomputes quietly and counts a
           hit, so counters do not depend on pool scheduling *)
        let fresh = claim m.feas in
        if fresh then Solver_stats.cache_miss ()
        else Solver_stats.cache_hit ();
        let r, tag =
          if fresh then compute_feasible t
          else Solver_stats.quiet (fun () -> compute_feasible t)
        in
        Atomic.set m.feas (if r then Yes else No);
        (r, tag)
    in
    let ns = now_ns () - t0 in
    Solver_stats.add_fast_ns ns;
    if Obs.Metrics.enabled () then Obs.Hist.observe (feasible_hist tag) ns;
    r
  end

(* The compound queries below route every internal feasibility test through
   [feasible] — inside the oracle scope included — so the reference and
   fast wall-clock counters cover the same set of underlying queries. *)

(* ---------- learned core: assumption queries over persistent contexts ----------

   [implies t c] is the conjunction over the negations [n] of [c] of
   "[t /\ n] is infeasible".  The learned core answers each such
   assumption query through the persistent {!Context} of [t]:

   - the witness table first: rational feasibility of [t /\ (d.x <= q)] is
     monotone in [q], so one recorded feasible outcome answers every looser
     [q] on the same direction (bound hit) — exact;
   - otherwise one packed elimination over the base rows plus the single
     assumption row; a feasible outcome is learned into the table.

   Eliminations triggered here run under [Solver_stats.quiet]: whether a
   particular query pays an elimination or hits a witness depends on query
   arrival order across domains, so letting them bump the deterministic
   counters would break jobs-invariance.  The work is counted in the
   unconditional ctx_* telemetry instead. *)

(* Direction key of a packed inequality row [cs.x + k <= 0]: the linear
   part divided by its own gcd [g].  Constr normalization folds the
   constant into the gcd, so rows sharing a direction but not a constant
   normalize differently — the witness table must renormalize the linear
   part alone.  The query value is [q = -k/g], making the row
   [key.x <= q].  ([pack_constr] guarantees no [min_int] anywhere.) *)
let dir_of_row r =
  let cs = Packed.row_coeffs r in
  let g = Array.fold_left (fun g c -> Rat.gcd g c) 0 cs in
  let cs' = if g = 1 then cs else Array.map (fun c -> c / g) cs in
  ((Packed.row_ids r, cs'), Rat.make (-Packed.row_const r) g)

(* Is [t /\ n] feasible, for a single negation constraint [n]?  Exact in
   every branch. *)
let assume_feasible ctx rows t n =
  match Packed.pack_constr n with
  | exception Packed.Not_packable ->
    (* negation does not pack: use the generic memoized path *)
    feasible (add n t)
  | nrow ->
    if Packed.is_const nrow then
      (* constant assumption: either contradictory on its own or vacuous *)
      if Packed.const_infeasible nrow then false else feasible t
    else begin
      let key, q = dir_of_row nrow in
      Context.witnessed ctx key q
      || begin
        Solver_stats.ctx_elim ();
        let r =
          Solver_stats.quiet (fun () ->
              try Packed.feasible (Array.append rows [| nrow |])
              with Packed.Not_packable | Rat.Overflow ->
                ref_feasible_l (norm_l (n :: t.cs)))
        in
        if r then Context.learn_feasible ctx key q;
        r
      end
    end

let implies_learned t c =
  let mt = Obs.Metrics.enabled () in
  let t0 = if mt then now_ns () else 0 in
  let observe h = if mt then Obs.Hist.observe h (now_ns () - t0) in
  if List.exists (Constr.equal c) t.cs then begin
    Solver_stats.syntactic_hit ();
    observe h_implies_hit;
    true
  end
  else
    match packed_rows t with
    | None ->
      (* unpackable system: nothing for a packed context to learn from *)
      let r = List.for_all (fun n -> not (feasible (add n t))) (negations c) in
      observe h_implies_eliminated;
      r
    | Some rows -> (
      let ctx = context t in
      match Context.box ctx ~build:(fun () -> Packed.box_of rows) with
      | None ->
        (* [t] itself is infeasible, so it entails anything *)
        Solver_stats.box_refutation ();
        observe h_implies_prefilter;
        true
      | Some box -> (
        let pre =
          try
            if Packed.box_implies box [| Packed.pack_constr c |] then begin
              Solver_stats.syntactic_hit ();
              Some true
            end
            else None
          with Packed.Not_packable | Rat.Overflow -> None
        in
        match pre with
        | Some r ->
          observe h_implies_prefilter;
          r
        | None ->
          let r =
            List.for_all (fun n -> not (assume_feasible ctx rows t n)) (negations c)
          in
          observe h_implies_eliminated;
          r))

(* The answer cell of an implies key, and whether this caller created it:
   the creation is the pair's first-arrival claim, exactly one per pair and
   epoch. *)
let rec implies_cell m cid =
  let cur = Atomic.get m.implies in
  match Imap.find cid cur with
  | cell -> (cell, false)
  | exception Not_found ->
    let cell = Atomic.make Claimed in
    if Atomic.compare_and_set m.implies cur (Imap.add cid cell cur) then
      (cell, true)
    else implies_cell m cid

(* Computed answers are timed; hits are deliberately not — two clock reads
   would cost more than the lookup itself, and the wall sums are already
   excluded from the deterministic stats. *)
let implies_computed m t c =
  let t0 = now_ns () in
  (* counted against the claim, not the lookup: two domains racing on a
     fresh pair both miss, but only the first claims it — so (queries -
     fresh), the derived memo-hit total, is identical at every --jobs
     setting *)
  let cell, fresh = implies_cell m (Constr.id c) in
  if fresh then Solver_stats.implies_fresh ();
  let r =
    if fresh then implies_learned t c
    else Solver_stats.quiet (fun () -> implies_learned t c)
  in
  Atomic.set cell (if r then Yes else No);
  Solver_stats.add_implies_ns (now_ns () - t0);
  r

(* Inside the oracle scope the memo and the learned contexts (a memo layer
   too) are bypassed, so the reference path is timed unmemoized. *)
let implies t c =
  Solver_stats.implies_query ();
  if Atomic.get use_reference then begin
    let t0 = now_ns () in
    Solver_stats.implies_fresh ();
    let r = List.for_all (fun n -> not (feasible (add n t))) (negations c) in
    Solver_stats.add_implies_ns (now_ns () - t0);
    r
  end
  else begin
    let m = memo t in
    match Atomic.get (Imap.find (Constr.id c) (Atomic.get m.implies)) with
    | Yes -> true
    | No -> false
    | Unseen | Claimed -> implies_computed m t c
    | exception Not_found -> implies_computed m t c
  end

let includes a b =
  if Atomic.get use_reference then List.for_all (fun c -> implies b c) a.cs
  else equal a b || List.for_all (fun c -> implies b c) a.cs

let disjoint a b =
  if Atomic.get use_reference then not (feasible (meet a b))
  else begin
    let mt = Obs.Metrics.enabled () in
    let t0 = if mt then now_ns () else 0 in
    let observe h = if mt then Obs.Hist.observe h (now_ns () - t0) in
    let fast =
      match (packed_rows a, packed_rows b) with
      | Some ra, Some rb -> (
        try
          match (Packed.box_of ra, Packed.box_of rb) with
          | None, _ | _, None ->
            Solver_stats.box_refutation ();
            Some true
          | Some ba, Some bb ->
            if Packed.boxes_disjoint ba bb then begin
              Solver_stats.box_refutation ();
              Some true
            end
            else None
        with Packed.Not_packable | Rat.Overflow -> None)
      | _ -> None
    in
    match fast with
    | Some r ->
      observe h_disjoint_prefilter;
      r
    | None ->
      let r = not (feasible (meet a b)) in
      observe h_disjoint_eliminated;
      r
  end

let equal_semantic a b = includes a b && includes b a

let simplify t =
  (* keep a constraint only if the others do not already entail it *)
  let rec go kept dropped = function
    | [] -> (kept, dropped)
    | c :: rest ->
      let others = List.rev_append kept rest in
      if others <> [] && implies (of_list others) c then
        go kept (c :: dropped) rest
      else go (c :: kept) dropped rest
  in
  let kept, dropped = go [] [] t.cs in
  (* [implies] negates over the integers and then decides rational
     feasibility: sound, but not transitive, so a constraint dropped early
     may no longer follow from the final set once later ones are dropped
     too.  Restore those.  One pass suffices: entailment is monotone in the
     system, so what the final set implies, any superset of it implies. *)
  let final = of_list kept in
  of_list (kept @ List.filter (fun c -> not (implies final c)) dropped)

let pick_in_range lo hi =
  match lo, hi with
  | None, None -> Rat.zero
  | Some l, None ->
    let c = Rat.of_int (Rat.ceil l) in
    if Rat.( >= ) c l then c else l
  | None, Some h ->
    let f = Rat.of_int (Rat.floor h) in
    if Rat.( <= ) f h then f else h
  | Some l, Some h ->
    let cl = Rat.ceil l and fh = Rat.floor h in
    if cl <= fh then Rat.of_int cl
    else Rat.div (Rat.add l h) (Rat.of_int 2)

let sample t =
  let subst_l v e cs = norm_l (List.map (Constr.subst v e) cs) in
  let rec solve sys = function
    | [] ->
      if List.exists (fun c -> Constr.is_trivial c = Some false) sys then None
      else Some Var.Map.empty
    | v :: rest -> (
      let sys' = elim_l v sys in
      match solve sys' rest with
      | None -> None
      | Some m ->
        let sysv =
          Var.Map.fold (fun u r s -> subst_l u (Expr.const r) s) m sys
        in
        let lo, hi = local_bounds_l v sysv in
        Some (Var.Map.add v (pick_in_range lo hi) m))
  in
  match solve t.cs (Var.Set.elements (vars t)) with
  | None -> None
  | Some m -> Some (fun v -> Var.Map.find v m)

(* Output-sensitive results (bounds, projections) memoized through the
   learned contexts: the region layer re-derives both for the same
   interned system on every region rebuild (90%+ intern hit rate), each
   time paying the reference eliminator.  The stored value is exactly what
   one reference computation produced — these are rendered into .rgn
   files, and byte-identity holds because a memo hit returns the identical
   interned value a recompute would. *)
let bounds v t =
  let ctx = context t in
  match Context.find_bounds ctx (Var.id v) with
  | Some b -> b
  | None ->
    let b = bounds_raw v t in
    Context.store_bounds ctx (Var.id v) b;
    b

let project_onto keep t =
  let ctx = context t in
  let key = List.map Var.id (Var.Set.elements keep) in
  match Context.find_proj ctx key with
  | Some cs -> intern_norm cs
  | None ->
    let r = project_onto_raw keep t in
    Context.store_proj ctx key r.cs;
    r

module Reference = struct
  let feasible t = ref_feasible_l t.cs
  let implies = ref_implies
  let includes = ref_includes
  let disjoint = ref_disjoint
  let equal_semantic = ref_equal_semantic
  let bounds = bounds_raw
  let sample = sample

  let run f =
    let prev = Atomic.exchange use_reference true in
    Fun.protect f ~finally:(fun () -> Atomic.set use_reference prev)
end

let pp ppf t =
  if t.cs = [] then Format.pp_print_string ppf "{true}"
  else
    Format.fprintf ppf "{@[%a@]}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         Constr.pp)
      t.cs
