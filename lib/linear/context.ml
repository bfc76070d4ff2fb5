open Numeric

(* Persistent per-system solver contexts (the learning layer under
   {!System.implies}).  A [t] lives in the memo record of one interned
   system, next to that system's feasible and implies answers, and is shared
   by every domain.  It holds *derived facts* rather than final answers:

   - feasibility witnesses per direction: for a normalized direction [d]
     (gcd-reduced coefficient vector over sorted variable ids), rational
     feasibility of [sys /\ d.x <= q] is monotone in [q] (the set of
     feasible [q] is an up-set), so a query that came out feasible answers
     every later query on the same direction with a [q] at least as large,
     by one rational comparison: the point that satisfied the tighter
     constraint satisfies the looser one.  Only feasible outcomes are
     recorded; nothing here is an approximation, so answers stay
     byte-identical to the reference eliminator.
   - projected per-variable bounds and variable-set projections, memoizing
     the output-sensitive reference eliminator for the systems the region
     layer re-projects on every rebuild.
   - the system's interval box.

   Everything here is a cache of exact facts: dropping it is always sound,
   and [System.clear_cache] does exactly that, together with the answers in
   the same record.  All mutation happens under the per-context [lock];
   reads copy what they need out while holding it. *)

type t = {
  lock : Mutex.t;
  witnesses : (int array * int array, Rat.t) Hashtbl.t;
      (* (ids, gcd-normalized coeffs) -> least [q] known feasible *)
  var_bounds : (int, Rat.t option * Rat.t option) Hashtbl.t;
      (* Var.id -> exact projected bounds (System.bounds results) *)
  projs : (int list, Constr.t list) Hashtbl.t;
      (* sorted kept Var.ids -> canonical projection constraint list *)
  mutable box : box_state;  (* cached interval box of the packed rows *)
}

and box_state = Box_unknown | Box_none | Box_some of Packed.box

let create () =
  {
    lock = Mutex.create ();
    witnesses = Hashtbl.create 16;
    var_bounds = Hashtbl.create 8;
    projs = Hashtbl.create 4;
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

(* ---------- feasibility witnesses ---------- *)

(* Query: is [sys /\ d.x <= q] feasible?  [true] when a recorded witness
   answers it, [false] when this is new ground. *)
let witnessed t key q =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.witnesses key with
    | Some f -> Rat.compare q f >= 0
    | None -> false
  in
  Mutex.unlock t.lock;
  if r then Solver_stats.ctx_bound_hit ();
  r

let learn_feasible t key q =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.witnesses key with
  | Some f when Rat.compare f q <= 0 -> ()
  | _ -> Hashtbl.replace t.witnesses key q);
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
