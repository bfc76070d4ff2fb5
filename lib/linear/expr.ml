open Numeric

(* Hash-consed: [id] is the process-unique intern id of the (terms,
   constant) content, [hash] its structural hash.  Every constructor routes
   through [mk]/[intern], so two structurally equal expressions are always
   the same value and [equal] is one integer comparison.  [compare] stays
   structural (ids are allocation-order dependent) so that every canonical
   ordering downstream is independent of scheduling. *)
type t = { id : int; hash : int; terms : Rat.t Var.Map.t; constant : Rat.t }

let content_hash terms constant =
  let rat acc r = Intern.mix (Intern.mix acc (Rat.num r)) (Rat.den r) in
  Var.Map.fold (fun v c acc -> rat (Intern.mix acc (Var.id v)) c) terms
    (rat 0x811c9dc5 constant)

module I = Intern.Make (struct
  type nonrec t = t

  let equal a b =
    Rat.equal a.constant b.constant && Var.Map.equal Rat.equal a.terms b.terms

  let hash t = t.hash
  let with_id t id = { t with id }
  let name = "expr"
end)

let mk terms constant =
  I.intern { id = -1; hash = content_hash terms constant; terms; constant }

let zero = mk Var.Map.empty Rat.zero

let const c = mk Var.Map.empty c

let of_int n = const (Rat.of_int n)

let norm_coeff c = if Rat.equal c Rat.zero then None else Some c

let monom c v =
  match norm_coeff c with
  | None -> zero
  | Some c -> mk (Var.Map.singleton v c) Rat.zero

let var v = monom Rat.one v

let add a b =
  let terms =
    Var.Map.union (fun _ ca cb -> norm_coeff (Rat.add ca cb)) a.terms b.terms
  in
  mk terms (Rat.add a.constant b.constant)

let scale k t =
  if Rat.equal k Rat.zero then zero
  else mk (Var.Map.map (Rat.mul k) t.terms) (Rat.mul k t.constant)

let neg t = scale Rat.minus_one t

let sub a b = add a (neg b)

let add_const c t = mk t.terms (Rat.add c t.constant)

let coeff v t =
  match Var.Map.find_opt v t.terms with Some c -> c | None -> Rat.zero

let constant t = t.constant

let vars t = Var.Map.bindings t.terms |> List.map fst

let mem v t = Var.Map.mem v t.terms

let is_const t = Var.Map.is_empty t.terms

let subst v e t =
  let c = coeff v t in
  if Rat.equal c Rat.zero then t
  else
    let without = mk (Var.Map.remove v t.terms) t.constant in
    add without (scale c e)

(* [hash] is structural over variable ids and coefficients, and a stored
   entry's variables are the ones this process computes, so the stored
   hash is still right *)
let reintern t = I.intern { t with id = -1 }

let eval valuation t =
  Var.Map.fold
    (fun v c acc -> Rat.add acc (Rat.mul c (valuation v)))
    t.terms t.constant

let fold f t init = Var.Map.fold f t.terms init

let denominator_lcm t =
  Var.Map.fold
    (fun _ c acc -> Rat.lcm acc (Rat.den c))
    t.terms (Rat.den t.constant)

let id t = t.id
let hash t = t.hash

let equal a b = a.id = b.id

let compare a b =
  if a.id = b.id then 0
  else
    let c = Rat.compare a.constant b.constant in
    if c <> 0 then c else Var.Map.compare Rat.compare a.terms b.terms

let pp ppf t =
  let first = ref true in
  let sep sign =
    if !first then begin
      first := false;
      if sign < 0 then Format.pp_print_string ppf "-"
    end
    else Format.pp_print_string ppf (if sign < 0 then " - " else " + ")
  in
  Var.Map.iter
    (fun v c ->
      sep (Rat.sign c);
      let a = Rat.abs c in
      if Rat.equal a Rat.one then Var.pp ppf v
      else Format.fprintf ppf "%a*%a" Rat.pp a Var.pp v)
    t.terms;
  if not (Rat.equal t.constant Rat.zero) || !first then begin
    sep (Rat.sign t.constant);
    Rat.pp ppf (Rat.abs t.constant)
  end

let to_string t = Format.asprintf "%a" pp t
