open Numeric

(* Packed integer rows for the answer-only solver paths in {!System}.

   Constr normalization already scales every constraint to coprime integer
   coefficients, so a constraint [sum c_i v_i + k (<=|=) 0] packs into two
   flat int arrays indexed in ascending variable-id order.  Fourier-Motzkin
   over these rows is pure integer arithmetic: no [Rat.t] allocation, no
   [Var.Map] traversal per coefficient.

   Exactness contract: with [~tighten:false], [feasible] decides rational
   feasibility exactly (same answer as the reference eliminator in
   {!System}).  With [~tighten:true], GCD tightening may additionally refute
   systems that are rationally feasible but integer-infeasible; such a
   refutation is reported as [Infeasible_tightened] so the caller can re-run
   exactly.  A [Feasible] answer is exact in both modes (tightening only
   shrinks the solution set). *)

exception Not_packable

type row = {
  ids : int array;  (* strictly increasing variable ids *)
  cs : int array;  (* non-zero integer coefficients, parallel to [ids] *)
  k : int;  (* constant term *)
  eq : bool;  (* [true] for equalities, [false] for [<= 0] *)
  anc : int;  (* bitset of original ancestor rows (Imbert counting);
                 0 means "untracked" and disables pruning *)
}

type t = row array

(* Overflow-checked integer primitives; any overflow aborts the packed
   attempt and the caller falls back to the exact rational path. *)

let cmul a b =
  if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if p / b <> a then raise Rat.Overflow;
    p
  end

let cadd a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
    raise Rat.Overflow;
  s

let cneg a = if a = min_int then raise Rat.Overflow else -a

(* ---------- packing ---------- *)

let pack_constr c =
  let e = Constr.expr c in
  let terms = List.rev (Expr.fold (fun v r acc -> (Var.id v, r) :: acc) e []) in
  let n = List.length terms in
  let ids = Array.make n 0 and cs = Array.make n 0 in
  List.iteri
    (fun i (id, r) ->
      if not (Rat.is_integer r) || Rat.num r = min_int then
        raise Not_packable;
      ids.(i) <- id;
      cs.(i) <- Rat.to_int r)
    terms;
  let kc = Expr.constant e in
  if not (Rat.is_integer kc) || Rat.num kc = min_int then raise Not_packable;
  { ids; cs; k = Rat.to_int kc; eq = Constr.op c = Constr.Eq; anc = 0 }

let pack cs = Array.of_list (List.map pack_constr cs)

(* ---------- row algebra ---------- *)

let is_const r = Array.length r.ids = 0

let const_infeasible r =
  is_const r && (if r.eq then r.k <> 0 else r.k > 0)

let coeff_of v r =
  (* binary search over the sorted id array *)
  let lo = ref 0 and hi = ref (Array.length r.ids - 1) in
  let found = ref 0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let id = r.ids.(mid) in
    if id = v then begin
      found := r.cs.(mid);
      lo := !hi + 1
    end
    else if id < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* [combine m1 r1 m2 r2] is the row [m1*r1 + m2*r2] with zero coefficients
   squeezed out (merge of two sorted term arrays). *)
let combine m1 r1 m2 r2 ~eq ~anc =
  let n1 = Array.length r1.ids and n2 = Array.length r2.ids in
  let ids = Array.make (n1 + n2) 0 and cs = Array.make (n1 + n2) 0 in
  let i = ref 0 and j = ref 0 and out = ref 0 in
  let push id c =
    if c <> 0 then begin
      ids.(!out) <- id;
      cs.(!out) <- c;
      incr out
    end
  in
  while !i < n1 && !j < n2 do
    let id1 = r1.ids.(!i) and id2 = r2.ids.(!j) in
    if id1 = id2 then begin
      push id1 (cadd (cmul m1 r1.cs.(!i)) (cmul m2 r2.cs.(!j)));
      incr i;
      incr j
    end
    else if id1 < id2 then begin
      push id1 (cmul m1 r1.cs.(!i));
      incr i
    end
    else begin
      push id2 (cmul m2 r2.cs.(!j));
      incr j
    end
  done;
  while !i < n1 do
    push r1.ids.(!i) (cmul m1 r1.cs.(!i));
    incr i
  done;
  while !j < n2 do
    push r2.ids.(!j) (cmul m2 r2.cs.(!j));
    incr j
  done;
  {
    ids = Array.sub ids 0 !out;
    cs = Array.sub cs 0 !out;
    k = cadd (cmul m1 r1.k) (cmul m2 r2.k);
    eq;
    anc;
  }

(* Exact normalization: divide the whole row (coefficients and constant) by
   their common gcd.  Always preserves the rational solution set. *)
let normalize_exact r =
  if is_const r then r
  else begin
    let g = ref (abs r.k) in
    Array.iter (fun c -> g := Rat.gcd !g c) r.cs;
    let g = !g in
    if g <= 1 then r
    else { r with cs = Array.map (fun c -> c / g) r.cs; k = r.k / g }
  end

(* GCD tightening of an integer inequality: divide the variable coefficients
   by their gcd [g] and round the constant up ([c.v + k <= 0] becomes
   [(c/g).v + ceil(k/g) <= 0]).  Exact on integer points; strictly stronger
   on rational points when [g] does not divide [k], in which case [strict]
   is flagged so a refutation can be re-checked exactly. *)
let tighten_row strict r =
  if r.eq || is_const r then r
  else begin
    let g = ref 0 in
    Array.iter (fun c -> g := Rat.gcd !g c) r.cs;
    let g = !g in
    if g <= 1 then r
    else begin
      let q = r.k / g and m = r.k mod g in
      let k' = if m > 0 then q + 1 else q in
      if m <> 0 then strict := true;
      { r with cs = Array.map (fun c -> c / g) r.cs; k = k' }
    end
  end

(* ---------- interval bounding boxes ---------- *)

type box = (int, Rat.t option * Rat.t option) Hashtbl.t

let box_of rows =
  try
    let tbl : box = Hashtbl.create 16 in
    Array.iter
      (fun r ->
        match Array.length r.ids with
        | 0 -> if const_infeasible r then raise Exit
        | 1 ->
          let id = r.ids.(0) and c = r.cs.(0) in
          let b = Rat.make (cneg r.k) c in
          let lo, hi =
            match Hashtbl.find_opt tbl id with
            | Some b -> b
            | None -> (None, None)
          in
          let max_lo lo =
            match lo with
            | None -> Some b
            | Some l -> Some (Rat.max l b)
          and min_hi hi =
            match hi with
            | None -> Some b
            | Some h -> Some (Rat.min h b)
          in
          let bnds =
            if r.eq then (max_lo lo, min_hi hi)
            else if c > 0 then (lo, min_hi hi)
            else (max_lo lo, hi)
          in
          Hashtbl.replace tbl id bnds
        | _ -> ())
      rows;
    Hashtbl.iter
      (fun _ bnds ->
        match bnds with
        | Some l, Some h -> if Rat.compare l h > 0 then raise Exit
        | _ -> ())
      tbl;
    Some tbl
  with Exit -> None

let boxes_disjoint a b =
  let lt h l =
    match (h, l) with
    | Some h, Some l -> Rat.compare h l < 0
    | _ -> false
  in
  Hashtbl.fold
    (fun id (lo, hi) acc ->
      acc
      ||
      match Hashtbl.find_opt b id with
      | None -> false
      | Some (lo', hi') -> lt hi lo' || lt hi' lo)
    a false

(* Finite supremum of [cs . v + k] over the box, [None] if unbounded. *)
let sup_over box ids cs k =
  let acc = ref (Rat.of_int k) in
  try
    Array.iteri
      (fun i c ->
        let lo, hi =
          match Hashtbl.find_opt box ids.(i) with
          | Some b -> b
          | None -> (None, None)
        in
        match if c > 0 then hi else lo with
        | None -> raise Exit
        | Some b -> acc := Rat.add !acc (Rat.mul (Rat.of_int c) b))
      cs;
    Some !acc
  with Exit -> None

(* [box_implies box rows]: the integer negation of each row is unsatisfiable
   over the box.  Since the box over-approximates the system the box was
   built from, a [true] answer means [System.implies] would answer [true]
   via its negation-feasibility check. *)
let box_implies box rows =
  let lt1 = function
    | Some s -> Rat.compare s Rat.one < 0
    | None -> false
  in
  Array.for_all
    (fun r ->
      let sup = lt1 (sup_over box r.ids r.cs r.k) in
      if not r.eq then sup
      else
        sup
        && lt1 (sup_over box r.ids (Array.map cneg r.cs) (cneg r.k)))
    rows

(* ---------- Fourier-Motzkin ---------- *)

exception Infeasible_exc

type outcome = Feasible | Infeasible | Infeasible_tightened

(* Split [rows] into constant rows (checked, dropped) and live rows. *)
let check_consts rows =
  List.filter
    (fun r ->
      if is_const r then begin
        if const_infeasible r then raise Infeasible_exc;
        false
      end
      else true)
    rows

(* Equality-substitution phase: repeatedly pick an equality with variables
   and use it to cancel one variable (smallest |coefficient|, then smallest
   id) from every other row mentioning it.  Exact over the rationals. *)
let rec eq_phase rows =
  let rec find_eq acc = function
    | [] -> None
    | r :: rest when r.eq && not (is_const r) ->
      Some (r, List.rev_append acc rest)
    | r :: rest -> find_eq (r :: acc) rest
  in
  match find_eq [] rows with
  | None -> rows
  | Some (e, rest) ->
    let pivot = ref 0 in
    Array.iteri
      (fun i c -> if abs c < abs e.cs.(!pivot) then pivot := i)
      e.cs;
    let v = e.ids.(!pivot) and a = e.cs.(!pivot) in
    if a = min_int then raise Rat.Overflow;
    let subst r =
      let c = coeff_of v r in
      if c = 0 then r
      else begin
        let g = Rat.gcd a c in
        let m1 = abs a / g in
        let m2 = cneg (if a > 0 then c / g else cneg (c / g)) in
        normalize_exact (combine m1 r m2 e ~eq:r.eq ~anc:0)
      end
    in
    eq_phase (check_consts (List.map subst rest))

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n land (n - 1)) (acc + 1) in
  go n 0

(* Inequality phase: pure Fourier-Motzkin with exact row normalization,
   dominance pruning, and Imbert's redundancy bound.  [step] is the 1-based
   index of the elimination being performed; a derived row whose ancestor
   set (union of the two parents' — parent-count sums would overcount
   shared history and prune sound rows) has more than [step + 1] members is
   redundant and dropped.  No tightening happens here: Imbert's theorem is
   about exact conic combinations, so tightened rows would void it. *)
let rec ineq_phase ?prio step rows =
  match rows with
  | [] -> ()
  | _ ->
    (* pick the variable minimizing #lowers * #uppers (ties: smallest id) *)
    let occ : (int, int ref * int ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun r ->
        Array.iteri
          (fun i c ->
            let nl, nu =
              match Hashtbl.find_opt occ r.ids.(i) with
              | Some p -> p
              | None ->
                let p = (ref 0, ref 0) in
                Hashtbl.add occ r.ids.(i) p;
                p
            in
            if c > 0 then incr nu else incr nl)
          r.cs)
      rows;
    let best = ref None in
    Hashtbl.iter
      (fun id (nl, nu) ->
        let cost = !nl * !nu in
        match !best with
        | None -> best := Some (id, cost)
        | Some (bid, bcost) ->
          if cost < bcost || (cost = bcost && id < bid) then
            best := Some (id, cost))
      occ;
    let v =
      match !best with
      | None -> assert false
      | Some (bid, bcost) -> (
        match prio with
        | None -> bid
        | Some act ->
          (* activity override: among the variables whose elimination cost
             is within 2x of the cheapest, prefer the most active one
             (ties: smallest id).  Any order is exact for FM, so this only
             redistributes work, never changes the answer. *)
          let limit = 2 * bcost in
          let chosen = ref (bid, act bid) in
          Hashtbl.iter
            (fun id (nl, nu) ->
              let cost = !nl * !nu in
              if cost <= limit then begin
                let a = act id in
                let cid, ca = !chosen in
                if a > ca || (a = ca && id < cid) then chosen := (id, a)
              end)
            occ;
          let cid, _ = !chosen in
          if cid <> bid then Solver_stats.ctx_activity_reorder ();
          cid)
    in
    let lows, ups, free =
      List.fold_left
        (fun (lows, ups, free) r ->
          let c = coeff_of v r in
          if c < 0 then ((r, c) :: lows, ups, free)
          else if c > 0 then (lows, (r, c) :: ups, free)
          else (lows, ups, r :: free))
        ([], [], []) rows
    in
    let built = ref 0 and pruned = ref 0 in
    (* dominance table: same coefficient vector -> keep the tightest
       constant (largest k).  The merged row must carry the INTERSECTION of
       the two ancestor sets: each pruned row B has an implying survivor A
       with anc(A) a subset of B's true history, so a descendant of A is
       never Imbert-pruned in a situation where the corresponding descendant
       of B would have been kept.  (Keeping the larger — or even just A's
       own — ancestor set here is unsound: A's descendants could be pruned
       while the pruned-B descendants that Kohler's criterion relies on were
       never built, losing constraints and reporting false Feasible.)
       Under-approximating ancestors only ever disables pruning, which is
       conservative; anc = 0 (empty) degrades to "never pruned". *)
    let dom : (int array * int array, row) Hashtbl.t = Hashtbl.create 64 in
    let keep r =
      let key = (r.ids, r.cs) in
      match Hashtbl.find_opt dom key with
      | None -> Hashtbl.replace dom key r
      | Some r' ->
        incr pruned;
        let merged =
          { (if r.k > r'.k then r else r') with anc = r.anc land r'.anc }
        in
        Hashtbl.replace dom key merged
    in
    List.iter keep free;
    List.iter
      (fun (lo, cl) ->
        List.iter
          (fun (up, cu) ->
            incr built;
            let anc = lo.anc lor up.anc in
            if anc <> 0 && popcount anc > step + 1 then incr pruned
            else begin
              let ncl = cneg cl in
              let g = Rat.gcd cu ncl in
              let r = combine (cu / g) lo (ncl / g) up ~eq:false ~anc in
              if is_const r then begin
                if const_infeasible r then raise Infeasible_exc
              end
              else keep (normalize_exact r)
            end)
          ups)
        lows;
    Solver_stats.fm_rows_built !built;
    Solver_stats.fm_rows_pruned !pruned;
    let next = Hashtbl.fold (fun _ r acc -> r :: acc) dom [] in
    ineq_phase ?prio (step + 1) next

let feasible ?prio ~tighten rows =
  Solver_stats.fm_run ();
  let strict = ref false in
  try
    let rows = check_consts (Array.to_list rows) in
    let rows = eq_phase rows in
    (* GCD-tighten the starting inequalities only: interleaving tightening
       with the elimination would break the conic-combination premise of
       both Imbert's bound and the exactness argument for [Feasible]. *)
    let rows =
      if tighten then check_consts (List.map (tighten_row strict) rows)
      else rows
    in
    (* Re-number ancestors after the equality phase so Imbert's bound
       applies to the pure-inequality run that starts here; with more than
       62 rows the bitset would overflow, so pruning is disabled (anc 0). *)
    let n = List.length rows in
    let rows =
      if n <= 62 then List.mapi (fun i r -> { r with anc = 1 lsl i }) rows
      else rows
    in
    ineq_phase ?prio 1 rows;
    Feasible
  with Infeasible_exc ->
    if !strict then Infeasible_tightened else Infeasible

(* ---------- row introspection (learned contexts) ---------- *)

let row_ids r = r.ids
let row_coeffs r = r.cs
let row_const r = r.k
