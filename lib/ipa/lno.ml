open Whirl

let headers_compatible (a : Wn.t) (b : Wn.t) =
  a.Wn.operator = Wn.OPR_DO_LOOP
  && b.Wn.operator = Wn.OPR_DO_LOOP
  && (Wn.kid a 0).Wn.st_idx = (Wn.kid b 0).Wn.st_idx
  && Wn.equal_tree (Wn.kid a 1) (Wn.kid b 1)
  && Wn.equal_tree (Wn.kid a 2) (Wn.kid b 2)
  && Wn.equal_tree (Wn.kid a 3) (Wn.kid b 3)

let fuse (a : Wn.t) (b : Wn.t) =
  if not (headers_compatible a b) then
    invalid_arg "Lno.fuse: incompatible loop headers";
  let body_a = Wn.kid a 4 and body_b = Wn.kid b 4 in
  let merged =
    { body_a with Wn.kids = Array.append body_a.Wn.kids body_b.Wn.kids }
  in
  { a with Wn.kids = [| Wn.kid a 0; Wn.kid a 1; Wn.kid a 2; Wn.kid a 3; merged |] }

let rec fuse_in_block m summaries pu (w : Wn.t) count =
  (* one left-to-right pass per call; the caller iterates to fixpoint *)
  let kids = Array.to_list w.Wn.kids in
  let rec go acc count = function
    | a :: b :: rest
      when headers_compatible a b
           && Deps.fusion_preventing m summaries pu ~first:a ~second:b = [] ->
      go acc (count + 1) (fuse a b :: rest)
    | x :: rest ->
      let x', count = fuse_in_stmt m summaries pu x count in
      go (x' :: acc) count rest
    | [] -> (List.rev acc, count)
  in
  let kids, count = go [] count kids in
  ({ w with Wn.kids = Array.of_list kids }, count)

and fuse_in_stmt m summaries pu (w : Wn.t) count =
  match w.Wn.operator with
  | Wn.OPR_BLOCK | Wn.OPR_FUNC_ENTRY -> fuse_in_block m summaries pu w count
  | Wn.OPR_DO_LOOP ->
    let body, count = fuse_in_stmt m summaries pu (Wn.kid w 4) count in
    ( { w with Wn.kids = [| Wn.kid w 0; Wn.kid w 1; Wn.kid w 2; Wn.kid w 3; body |] },
      count )
  | Wn.OPR_WHILE_DO ->
    let body, count = fuse_in_stmt m summaries pu (Wn.kid w 1) count in
    ({ w with Wn.kids = [| Wn.kid w 0; body |] }, count)
  | Wn.OPR_IF ->
    let t, count = fuse_in_stmt m summaries pu (Wn.kid w 1) count in
    let e, count = fuse_in_stmt m summaries pu (Wn.kid w 2) count in
    ({ w with Wn.kids = [| Wn.kid w 0; t; e |] }, count)
  | _ -> (w, count)

let fuse_pu m summaries (pu : Ir.pu) =
  let rec fixpoint body total =
    let body', n = fuse_in_stmt m summaries pu body 0 in
    if n = 0 then (body', total) else fixpoint body' (total + n)
  in
  let body, total = fixpoint (Ir.body pu) 0 in
  (Ir.with_body pu body, total)

let is_perfect_nest (w : Wn.t) =
  if w.Wn.operator <> Wn.OPR_DO_LOOP then None
  else
    let body = Wn.kid w 4 in
    if
      body.Wn.operator = Wn.OPR_BLOCK
      && Wn.kid_count body = 1
      && (Wn.kid body 0).Wn.operator = Wn.OPR_DO_LOOP
    then Some (Wn.kid body 0)
    else None

let interchange (outer : Wn.t) =
  match is_perfect_nest outer with
  | None -> invalid_arg "Lno.interchange: not a perfect 2-nest"
  | Some inner ->
    let inner_body = Wn.kid inner 4 in
    let new_inner =
      {
        outer with
        Wn.kids =
          [| Wn.kid outer 0; Wn.kid outer 1; Wn.kid outer 2; Wn.kid outer 3;
             inner_body |];
      }
    in
    let outer_body = { (Wn.kid outer 4) with Wn.kids = [| new_inner |] } in
    {
      inner with
      Wn.kids =
        [| Wn.kid inner 0; Wn.kid inner 1; Wn.kid inner 2; Wn.kid inner 3;
           outer_body |];
    }

type locality_suggestion = {
  loc_proc : string;
  loc_line : int;
  loc_outer : string;
  loc_inner : string;
  loc_bad_refs : int;
  loc_good_refs : int;
  loc_legal : bool;
}

(* does [st] appear in the WN expression? *)
let mentions_st st wn =
  Wn.count (fun w -> w.Wn.operator = Wn.OPR_LDID && w.Wn.st_idx = st) wn > 0

let locality_suggestions m summaries (pu : Ir.pu) =
  let out = ref [] in
  let rec walk (w : Wn.t) =
    (match w.Wn.operator, is_perfect_nest w with
    | Wn.OPR_DO_LOOP, Some inner ->
      let outer_st = (Wn.kid w 0).Wn.st_idx in
      let inner_st = (Wn.kid inner 0).Wn.st_idx in
      let bad = ref 0 and good = ref 0 in
      Wn.preorder
        (fun node ->
          if node.Wn.operator = Wn.OPR_ARRAY then begin
            let n = Wn.num_dim node in
            if n >= 2 then begin
              (* the last internal dimension is the contiguous one *)
              let fastest = Wn.array_index node (n - 1) in
              if mentions_st outer_st fastest && not (mentions_st inner_st fastest)
              then incr bad
              else if mentions_st inner_st fastest then incr good
            end
          end)
        (Wn.kid inner 4);
      if !bad > !good && !bad > 0 then
        out :=
          {
            loc_proc = pu.Ir.pu_name;
            loc_line = Lang.Loc.line w.Wn.linenum;
            loc_outer = Ir.st_name m pu outer_st;
            loc_inner = Ir.st_name m pu inner_st;
            loc_bad_refs = !bad;
            loc_good_refs = !good;
            loc_legal =
              Deps.interchange_preventing m summaries pu ~outer:w ~inner = [];
          }
          :: !out
    | _ -> ());
    match w.Wn.operator with
    | Wn.OPR_DO_LOOP -> walk (Wn.kid w 4)
    | _ -> Array.iter walk w.Wn.kids
  in
  walk (Ir.body pu);
  List.rev !out

let interchange_pu m summaries (pu : Ir.pu) ~want =
  let count = ref 0 in
  let rec walk (w : Wn.t) : Wn.t =
    match w.Wn.operator with
    | Wn.OPR_BLOCK | Wn.OPR_FUNC_ENTRY ->
      { w with Wn.kids = Array.map walk w.Wn.kids }
    | Wn.OPR_IF ->
      { w with Wn.kids = [| Wn.kid w 0; walk (Wn.kid w 1); walk (Wn.kid w 2) |] }
    | Wn.OPR_WHILE_DO -> { w with Wn.kids = [| Wn.kid w 0; walk (Wn.kid w 1) |] }
    | Wn.OPR_DO_LOOP -> (
      match is_perfect_nest w with
      | Some inner
        when want
               ~outer_ivar:(Ir.st_name m pu (Wn.kid w 0).Wn.st_idx)
               ~inner_ivar:(Ir.st_name m pu (Wn.kid inner 0).Wn.st_idx)
             && Deps.interchange_preventing m summaries pu ~outer:w ~inner = []
        ->
        incr count;
        (* recurse below the swapped nest too *)
        let swapped = interchange w in
        let body = walk (Wn.kid swapped 4) in
        {
          swapped with
          Wn.kids =
            [| Wn.kid swapped 0; Wn.kid swapped 1; Wn.kid swapped 2;
               Wn.kid swapped 3; body |];
        }
      | _ ->
        let body = walk (Wn.kid w 4) in
        {
          w with
          Wn.kids =
            [| Wn.kid w 0; Wn.kid w 1; Wn.kid w 2; Wn.kid w 3; body |];
        })
    | _ -> w
  in
  let body = walk (Ir.body pu) in
  (Ir.with_body pu body, !count)
