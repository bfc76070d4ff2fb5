open Numeric

type op = Le | Eq

(* Hash-consed on (op, expr): [Expr.t] is itself interned, so the content
   key is the pair of the op tag and the expression's id. *)
type t = { id : int; expr : Expr.t; op : op }

module I = Intern.Make (struct
  type nonrec t = t

  let equal a b = a.op = b.op && Expr.equal a.expr b.expr

  let hash t =
    Intern.mix (match t.op with Le -> 3 | Eq -> 5) (Expr.id t.expr)

  let with_id t id = { t with id }
  let name = "constr"
end)

let mk expr op = I.intern { id = -1; expr; op }

(* Scale to integer coefficients with gcd 1 so that structurally equal
   constraints compare equal and the integer-negation trick in
   {!System.implies} is valid. *)
let normalize expr op =
  let l = Expr.denominator_lcm expr in
  (* scaling by 1 would only re-intern [expr] to itself *)
  let expr = if l = 1 then expr else Expr.scale (Rat.of_int l) expr in
  let g =
    Expr.fold (fun _ c acc -> Rat.gcd acc (Rat.num c)) expr
      (Rat.num (Expr.constant expr))
    |> abs
  in
  let expr = if g > 1 then Expr.scale (Rat.make 1 g) expr else expr in
  let expr =
    match op with
    | Le -> expr
    | Eq -> (
      (* canonical sign for equalities: first nonzero coefficient positive *)
      match Expr.vars expr with
      | [] -> if Rat.sign (Expr.constant expr) < 0 then Expr.neg expr else expr
      | v :: _ -> if Rat.sign (Expr.coeff v expr) < 0 then Expr.neg expr else expr)
  in
  mk expr op

let make expr op = normalize expr op

let le a b = make (Expr.sub a b) Le
let ge a b = le b a
let eq a b = make (Expr.sub a b) Eq

let between e ~lo ~hi =
  [ ge e (Expr.of_int lo); le e (Expr.of_int hi) ]

let expr t = t.expr
let op t = t.op
let id t = t.id

let is_trivial t =
  if not (Expr.is_const t.expr) then None
  else
    let c = Expr.constant t.expr in
    match t.op with
    | Le -> Some (Rat.sign c <= 0)
    | Eq -> Some (Rat.sign c = 0)

let subst v e t = make (Expr.subst v e t.expr) t.op

let map_vars f t = make (Expr.map_vars f t.expr) t.op

let reintern expr t = mk (expr t.expr) t.op

let holds valuation t =
  let v = Expr.eval valuation t.expr in
  match t.op with Le -> Rat.sign v <= 0 | Eq -> Rat.sign v = 0

let vars t = Expr.vars t.expr
let mem v t = Expr.mem v t.expr

let equal a b = a.id = b.id

let compare a b =
  if a.id = b.id then 0
  else
    let c = Stdlib.compare a.op b.op in
    if c <> 0 then c else Expr.compare a.expr b.expr

let pp ppf t =
  let opstr = match t.op with Le -> "<=" | Eq -> "=" in
  Format.fprintf ppf "%a %s 0" Expr.pp t.expr opstr
