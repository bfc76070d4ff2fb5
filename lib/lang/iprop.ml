type t = {
  ip_lo : int option;
  ip_hi : int option;
  ip_monotonic : bool;
  ip_injective : bool;
}

let none = { ip_lo = None; ip_hi = None; ip_monotonic = false; ip_injective = false }
let is_none t = t = none
let equal (a : t) (b : t) = a = b

let meet a b =
  {
    ip_lo =
      (match a.ip_lo, b.ip_lo with
      | Some x, Some y -> Some (max x y)
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None);
    ip_hi =
      (match a.ip_hi, b.ip_hi with
      | Some x, Some y -> Some (min x y)
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None);
    ip_monotonic = a.ip_monotonic || b.ip_monotonic;
    ip_injective = a.ip_injective || b.ip_injective;
  }

let to_token t =
  if is_none t then "-"
  else begin
    let items = ref [] in
    (match t.ip_hi with Some h -> items := ("h" ^ string_of_int h) :: !items | None -> ());
    (match t.ip_lo with Some l -> items := ("l" ^ string_of_int l) :: !items | None -> ());
    if t.ip_injective then items := "i" :: !items;
    if t.ip_monotonic then items := "m" :: !items;
    String.concat "," !items
  end

let of_token s =
  if s = "-" then Some none
  else
    let items = String.split_on_char ',' s in
    List.fold_left
      (fun acc item ->
        match acc with
        | None -> None
        | Some t -> (
          match item with
          | "m" -> Some { t with ip_monotonic = true }
          | "i" -> Some { t with ip_injective = true }
          | "" -> None
          | _ -> (
            let tag = item.[0] in
            let rest = String.sub item 1 (String.length item - 1) in
            match tag, int_of_string_opt rest with
            | 'l', Some v -> Some { t with ip_lo = Some v }
            | 'h', Some v -> Some { t with ip_hi = Some v }
            | _ -> None)))
      (Some none) items

let pp ppf t =
  if is_none t then Format.pp_print_string ppf "none"
  else begin
    let first = ref true in
    let item fmt =
      Format.kasprintf
        (fun s ->
          if not !first then Format.pp_print_string ppf " ";
          first := false;
          Format.pp_print_string ppf s)
        fmt
    in
    if t.ip_monotonic then item "monotonic";
    if t.ip_injective then item "injective";
    match t.ip_lo, t.ip_hi with
    | Some l, Some h -> item "bounded(%d,%d)" l h
    | Some l, None -> item "bounded(%d,*)" l
    | None, Some h -> item "bounded(*,%d)" h
    | None, None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Provenance flags *)

type flags = {
  f_bounded : bool;
  f_monotonic : bool;
  f_injective : bool;
}

let no_flags = { f_bounded = false; f_monotonic = false; f_injective = false }

let flags_union a b =
  {
    f_bounded = a.f_bounded || b.f_bounded;
    f_monotonic = a.f_monotonic || b.f_monotonic;
    f_injective = a.f_injective || b.f_injective;
  }

let any_flag f = f.f_bounded || f.f_monotonic || f.f_injective

let flags_token f =
  if not (any_flag f) then "-"
  else
    (if f.f_bounded then "b" else "")
    ^ (if f.f_monotonic then "m" else "")
    ^ if f.f_injective then "i" else ""

let flags_of_token s =
  if s = "-" then Some no_flags
  else if s = "" then None
  else
    String.fold_left
      (fun acc ch ->
        match acc with
        | None -> None
        | Some f -> (
          match ch with
          | 'b' -> Some { f with f_bounded = true }
          | 'm' -> Some { f with f_monotonic = true }
          | 'i' -> Some { f with f_injective = true }
          | _ -> None))
      (Some no_flags) s

(* ------------------------------------------------------------------ *)
(* Directive scanning over raw source text *)

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

(* "bounded(LO,HI)" -> Some (lo, hi) *)
let parse_bounded w =
  let n = String.length w in
  if n >= 10 && String.sub w 0 8 = "bounded(" && w.[n - 1] = ')' then
    match String.split_on_char ',' (String.sub w 8 (n - 9)) with
    | [ lo; hi ] -> (
      match int_of_string_opt (String.trim lo), int_of_string_opt (String.trim hi) with
      | Some l, Some h -> Some (l, h)
      | _ -> None)
    | _ -> None
  else None

let parse_props words =
  List.fold_left
    (fun acc w ->
      match acc with
      | None -> None
      | Some t -> (
        match String.lowercase_ascii w with
        | "monotonic" -> Some { t with ip_monotonic = true }
        | "injective" -> Some { t with ip_injective = true }
        | lw -> (
          match parse_bounded lw with
          | Some (l, h) -> Some { t with ip_lo = Some l; ip_hi = Some h }
          | None -> None)))
    (Some none) words

let directive_rest ~fortran line =
  let line = String.trim line in
  let strip prefix =
    let n = String.length prefix in
    if
      String.length line >= n
      && String.lowercase_ascii (String.sub line 0 n) = prefix
    then Some (String.sub line n (String.length line - n))
    else None
  in
  if fortran then strip "!$uhc "
  else
    (* allow a space between '#' and 'pragma' *)
    match strip "#pragma uhc " with
    | Some _ as r -> r
    | None -> strip "# pragma uhc "

let scan ~fortran src =
  let found = ref [] in
  let add name t =
    let name = if fortran then String.lowercase_ascii name else name in
    found :=
      (match List.assoc_opt name !found with
      | Some prev -> (name, meet prev t) :: List.remove_assoc name !found
      | None -> (name, t) :: !found)
  in
  let line l =
    match directive_rest ~fortran l with
    | None -> ()
    | Some rest -> (
      match split_ws rest with
      | "index" :: name :: props when props <> [] -> (
        match parse_props props with
        | Some t when not (is_none t) -> add name t
        | _ -> ())
      | _ -> ())
  in
  (* only a line whose first non-blank character starts a directive is
     cut out of the source *)
  let lead = if fortran then '!' else '#' in
  let n = String.length src in
  let start = ref 0 in
  while !start < n do
    let stop = ref !start in
    while !stop < n && src.[!stop] <> '\n' do incr stop done;
    let k = ref !start in
    while
      !k < !stop
      && (match src.[!k] with ' ' | '\t' | '\r' | '\012' -> true | _ -> false)
    do
      incr k
    done;
    if !k < !stop && src.[!k] = lead then
      line (String.sub src !start (!stop - !start));
    start := !stop + 1
  done;
  List.rev !found

let lookup l name = Option.value (List.assoc_opt name l) ~default:none
