open Numeric

(* Persistent per-system solver contexts (the incremental, conflict-learning
   layer under {!System.implies}).  A [t] lives in the memo record of one
   interned system, next to that system's feasible and implies answers, and
   is shared by every domain.  It holds *derived facts* rather than final
   answers:

   - direction thresholds: for a normalized direction [d] (gcd-reduced
     coefficient vector over sorted variable ids), rational feasibility of
     [sys /\ d.x <= q] is monotone in [q] with a single threshold
     (inf{d.x : x in sys}, attained for closed rational polyhedra).  Any
     feasible query lower-bounds the threshold from above and any
     infeasible one from below, so later queries on the same direction are
     answered by one rational comparison: a recorded infeasible bound is
     exactly a Farkas certificate (the nonnegative combination FM found)
     re-applied to a tighter constant, a recorded feasible bound is a
     witness point re-used for a looser one.  Both directions are exact —
     no approximation is involved, so answers stay byte-identical to the
     reference eliminator.
   - projected per-variable bounds and variable-set projections, memoizing
     the output-sensitive reference eliminator for the systems the region
     layer re-projects on every rebuild.
   - per-variable activity (occurrence-seeded, bumped on conflict, decayed
     per query, MiniSat-style) consumed by {!Packed.feasible} as an
     elimination-order hint.

   Everything here is a cache of exact facts: dropping it is always sound,
   and [System.clear_cache] does exactly that, together with the answers in
   the same record.  All mutation happens under the per-context [lock];
   reads copy what they need out while holding it. *)

type dir = { mutable min_feasible : Rat.t option; mutable max_infeasible : Rat.t option }

type t = {
  lock : Mutex.t;
  dirs : (int array * int array, dir) Hashtbl.t;
      (* (ids, gcd-normalized coeffs) -> learned threshold interval *)
  var_bounds : (int, Rat.t option * Rat.t option) Hashtbl.t;
      (* Var.id -> exact projected bounds (System.bounds results) *)
  projs : (int list, Constr.t list) Hashtbl.t;
      (* sorted kept Var.ids -> canonical projection constraint list *)
  activity : (int, float) Hashtbl.t;  (* Var.id -> activity score *)
  mutable bump : float;  (* current bump increment (grows; implicit decay) *)
  mutable seeded : bool;  (* activity table initialised from the rows *)
  mutable box : box_state;  (* cached interval box of the packed rows *)
}

and box_state = Box_unknown | Box_none | Box_some of Packed.box

let create () =
  {
    lock = Mutex.create ();
    dirs = Hashtbl.create 16;
    var_bounds = Hashtbl.create 8;
    projs = Hashtbl.create 4;
    activity = Hashtbl.create 16;
    bump = 1.0;
    seeded = false;
    box = Box_unknown;
  }

(* ---------- cached interval box ---------- *)

(* The box is immutable once built; building it under the lock keeps the
   publication race-free, and concurrent lock-free reads of the published
   Hashtbl are safe because nobody mutates it afterwards. *)
let box t ~build =
  Mutex.lock t.lock;
  let b =
    match t.box with
    | Box_none -> None
    | Box_some b -> Some b
    | Box_unknown ->
      let b = build () in
      t.box <- (match b with None -> Box_none | Some b -> Box_some b);
      b
  in
  Mutex.unlock t.lock;
  b

(* ---------- direction thresholds ---------- *)

(* Query: is [sys /\ d.x <= q] feasible?  [Some _] when a learned bound
   decides it, [None] when this is new ground. *)
let check_dir t key q =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.dirs key with
    | None -> None
    | Some d -> (
      match d.min_feasible with
      | Some f when Rat.compare q f >= 0 -> Some true
      | _ -> (
        match d.max_infeasible with
        | Some i when Rat.compare q i <= 0 -> Some false
        | _ -> None))
  in
  Mutex.unlock t.lock;
  (match r with
  | Some true -> Solver_stats.ctx_bound_hit ()
  | Some false -> Solver_stats.ctx_cut_hit ()
  | None -> ());
  r

let learn_dir t key q feas =
  Mutex.lock t.lock;
  let d =
    match Hashtbl.find_opt t.dirs key with
    | Some d -> d
    | None ->
      let d = { min_feasible = None; max_infeasible = None } in
      Hashtbl.add t.dirs key d;
      d
  in
  if feas then
    d.min_feasible <-
      (match d.min_feasible with
      | Some f when Rat.compare f q <= 0 -> Some f
      | _ -> Some q)
  else
    d.max_infeasible <-
      (match d.max_infeasible with
      | Some i when Rat.compare i q >= 0 -> Some i
      | _ -> Some q);
  Mutex.unlock t.lock

(* ---------- projected bounds / projections ---------- *)

let find_bounds t v =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.var_bounds v in
  Mutex.unlock t.lock;
  if r <> None then Solver_stats.ctx_bound_hit ();
  r

let store_bounds t v b =
  Mutex.lock t.lock;
  if not (Hashtbl.mem t.var_bounds v) then Hashtbl.add t.var_bounds v b;
  Mutex.unlock t.lock

let find_proj t key =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.projs key in
  Mutex.unlock t.lock;
  if r <> None then Solver_stats.ctx_proj_hit ();
  r

let store_proj t key cs =
  Mutex.lock t.lock;
  if not (Hashtbl.mem t.projs key) then Hashtbl.add t.projs key cs;
  Mutex.unlock t.lock

(* ---------- variable activity ---------- *)

let ensure_activity t seed =
  Mutex.lock t.lock;
  if not t.seeded then begin
    t.seeded <- true;
    List.iter
      (fun (v, n) ->
        let cur = Option.value ~default:0.0 (Hashtbl.find_opt t.activity v) in
        Hashtbl.replace t.activity v (cur +. float_of_int n))
      (seed ())
  end;
  Mutex.unlock t.lock

(* MiniSat-style exponential decay by growing the bump increment instead of
   rescaling every score on every query; rescale only on overflow danger. *)
let decay t =
  Mutex.lock t.lock;
  t.bump <- t.bump /. 0.95;
  if t.bump > 1e100 then begin
    Hashtbl.iter (fun v a -> Hashtbl.replace t.activity v (a *. 1e-100)) t.activity;
    t.bump <- t.bump *. 1e-100
  end;
  Mutex.unlock t.lock

let bump_vars t ids =
  Mutex.lock t.lock;
  Array.iter
    (fun v ->
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt t.activity v) in
      Hashtbl.replace t.activity v (cur +. t.bump))
    ids;
  Mutex.unlock t.lock

(* Snapshot the activity table into a private copy so {!Packed.feasible}
   can consult it without taking the lock per variable (and without racing
   concurrent bumps mid-elimination). *)
let prio t =
  Mutex.lock t.lock;
  let copy = Hashtbl.copy t.activity in
  Mutex.unlock t.lock;
  fun v -> Option.value ~default:0.0 (Hashtbl.find_opt copy v)
