open Whirl
open Regions
open Linear
open Numeric

(* ------------------------------------------------------------------ *)
(* Variable encoding *)

let encode_var m v =
  match Var.kind v with
  | Var.Subscript k -> Printf.sprintf "d%d" k
  | Var.Sym -> (
    match Collect.sym_info m v with
    | Some ("", code) ->
      (* global scalar *)
      let name =
        (Symtab.st m.Ir.m_global (code - Ir.global_base)).Symtab.st_name
      in
      Printf.sprintf "s:@:%s" name
    | Some (owner, code) -> (
      match Ir.find_pu m owner with
      | Some pu ->
        Printf.sprintf "s:%s:%s" owner
          (Symtab.st pu.Ir.pu_symtab code).Symtab.st_name
      | None -> Printf.sprintf "s:%s:?" owner)
    | None -> Printf.sprintf "s:?:%s" (Var.name v))
  | Var.Ivar -> Printf.sprintf "s:?:%s" (Var.name v)

let decode_var m token =
  if String.length token > 1 && token.[0] = 'd' then
    match int_of_string_opt (String.sub token 1 (String.length token - 1)) with
    | Some k -> Ok (Var.subscript k)
    | None -> Error (Printf.sprintf "bad subscript variable %S" token)
  else
    match String.split_on_char ':' token with
    | [ "s"; "@"; name ] -> (
      match Symtab.find_st m.Ir.m_global name with
      | Some idx ->
        let st = Ir.encode_global idx in
        Ok (Collect.sym_var ~m ~pu:"" ~st)
      | None -> Error (Printf.sprintf "unknown global scalar %S" name))
    | [ "s"; owner; name ] -> (
      match Ir.find_pu m owner with
      | None -> Error (Printf.sprintf "unknown procedure %S" owner)
      | Some pu -> (
        match Symtab.find_st pu.Ir.pu_symtab name with
        | Some st -> Ok (Collect.sym_var ~m ~pu:owner ~st)
        | None -> (
          match Symtab.find_st m.Ir.m_global name with
          | Some idx ->
            let st = Ir.encode_global idx in
            Ok (Collect.sym_var ~m ~pu:"" ~st)
          | None ->
            Error (Printf.sprintf "unknown scalar %S in %S" name owner))))
    | _ -> Error (Printf.sprintf "bad variable token %S" token)

(* ------------------------------------------------------------------ *)
(* Rational and constraint encoding *)

let encode_rat r =
  if Rat.den r = 1 then string_of_int (Rat.num r)
  else Printf.sprintf "%d/%d" (Rat.num r) (Rat.den r)

let decode_rat s =
  match String.split_on_char '/' s with
  | [ n ] -> (
    match int_of_string_opt n with
    | Some n -> Ok (Rat.of_int n)
    | None -> Error (Printf.sprintf "bad rational %S" s))
  | [ n; d ] -> (
    match int_of_string_opt n, int_of_string_opt d with
    | Some n, Some d when d <> 0 -> Ok (Rat.make n d)
    | _ -> Error (Printf.sprintf "bad rational %S" s))
  | _ -> Error (Printf.sprintf "bad rational %S" s)

(* constraint: "<le|eq> <const> [<coeff>*<var> ...]" *)
let encode_constr m c =
  let e = Constr.expr c in
  let op = match Constr.op c with Constr.Le -> "le" | Constr.Eq -> "eq" in
  let terms =
    Expr.fold
      (fun v coeff acc ->
        Printf.sprintf "%s*%s" (encode_rat coeff) (encode_var m v) :: acc)
      e []
  in
  String.concat " " (op :: encode_rat (Expr.constant e) :: List.rev terms)

let ( let* ) = Result.bind

let decode_constr m line =
  match String.split_on_char ' ' line with
  | op :: const :: terms ->
    let* op =
      match op with
      | "le" -> Ok Constr.Le
      | "eq" -> Ok Constr.Eq
      | other -> Error (Printf.sprintf "bad constraint op %S" other)
    in
    let* const = decode_rat const in
    let* expr =
      List.fold_left
        (fun acc term ->
          let* acc = acc in
          match String.index_opt term '*' with
          | None -> Error (Printf.sprintf "bad term %S" term)
          | Some i ->
            let* coeff = decode_rat (String.sub term 0 i) in
            let* v =
              decode_var m (String.sub term (i + 1) (String.length term - i - 1))
            in
            Ok (Expr.add acc (Expr.monom coeff v)))
        (Ok (Expr.const const))
        terms
    in
    Ok (Constr.make expr op)
  | _ -> Error (Printf.sprintf "bad constraint line %S" line)

(* ------------------------------------------------------------------ *)
(* Regions, entries, units *)

let encode_stride = function
  | Region.Sconst s -> string_of_int s
  | Region.Sunknown -> "*"

let decode_stride = function
  | "*" -> Ok Region.Sunknown
  | s -> (
    match int_of_string_opt s with
    | Some v -> Ok (Region.Sconst v)
    | None -> Error (Printf.sprintf "bad stride %S" s))

let encode_key m = function
  | Summary.Kformal p -> Printf.sprintf "F %d" p
  | Summary.Kglobal g ->
    Printf.sprintf "G %s" (Symtab.st m.Ir.m_global (g - Ir.global_base)).Symtab.st_name

let decode_key m s =
  match String.split_on_char ' ' s with
  | [ "F"; p ] -> (
    match int_of_string_opt p with
    | Some p -> Ok (Summary.Kformal p)
    | None -> Error (Printf.sprintf "bad formal position %S" p))
  | [ "G"; name ] -> (
    match Symtab.find_st m.Ir.m_global name with
    | Some idx -> Ok (Summary.Kglobal (Ir.encode_global idx))
    | None -> Error (Printf.sprintf "unknown global array %S" name))
  | _ -> Error (Printf.sprintf "bad key %S" s)

let write_entry m buf (e : Summary.entry) =
  let r = e.Summary.e_region in
  Buffer.add_string buf
    (Printf.sprintf "entry %s ; %s ; %d ; %d ; %d ; %d ; %s\n"
       (encode_key m e.Summary.e_key)
       (Mode.to_string e.Summary.e_mode)
       e.Summary.e_count (r : Region.t).Region.ndims
       (if Region.is_exact r then 1 else 0)
       (if Region.is_clamped r then 1 else 0)
       (Lang.Iprop.flags_token (Region.assumed_flags r)));
  Buffer.add_string buf
    (Printf.sprintf "strides %s\n"
       (String.concat " "
          (List.map (fun d -> encode_stride d.Region.stride) (Region.dim_list r))));
  List.iter
    (fun c -> Buffer.add_string buf (encode_constr m c ^ "\n"))
    (System.to_list (r : Region.t).Region.sys);
  Buffer.add_string buf "endentry\n"

let write_summary m proc summary =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "proc %s\n" proc);
  List.iter (write_entry m buf) summary;
  Buffer.add_string buf "endproc\n";
  Buffer.contents buf

let write_unit m summaries =
  String.concat "" (List.map (fun (p, s) -> write_summary m p s) summaries)

let parse_unit m text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let result = ref [] in
  let current_proc = ref None in
  let current_entries = ref [] in
  (* entry being assembled *)
  let pending :
      (Summary.key
      * Mode.t
      * int
      * int
      * (bool * bool * Lang.Iprop.flags) (* exact, clamped, assumed *)
      * Region.stride list
      * Constr.t list)
      option
      ref =
    ref None
  in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let finish_entry () =
    match !pending with
    | None -> ()
    | Some (key, mode, count, ndims, (exact, clamped, assumed), strides, constrs)
      ->
      if List.length strides <> ndims then
        fail (Printf.sprintf "entry has %d strides for %d dims"
                (List.length strides) ndims)
      else begin
        let region =
          Region.make ~ndims ~sys:(System.of_list (List.rev constrs)) ~strides
            ~exact
        in
        let region = if clamped then Region.mark_clamped region else region in
        let region = Region.set_assumed assumed region in
        current_entries :=
          {
            Summary.e_key = key;
            e_mode = mode;
            e_region = region;
            e_count = count;
          }
          :: !current_entries;
        pending := None
      end
  in
  List.iter
    (fun line ->
      if !err = None then
        let line = String.trim line in
        if String.length line > 5 && String.sub line 0 5 = "proc " then begin
          current_proc := Some (String.sub line 5 (String.length line - 5));
          current_entries := []
        end
        else if line = "endproc" then begin
          match !current_proc with
          | None -> fail "endproc without proc"
          | Some p ->
            result := (p, List.rev !current_entries) :: !result;
            current_proc := None
        end
        else if String.length line > 6 && String.sub line 0 6 = "entry " then begin
          if !current_proc = None then fail "entry outside proc";
          if !pending <> None then fail "entry while another entry is open (missing endentry)";
          let body = String.sub line 6 (String.length line - 6) in
          let parse_fields key mode count ndims exact clamped props =
            (* an unparseable props token degrades the row to conservative
               MESSY (clamped, no flags) — the legacy clamped-bit rule: an
               assertion we cannot read must never strengthen an answer *)
            let clamped, assumed =
              match Lang.Iprop.flags_of_token props with
              | Some f -> (clamped, f)
              | None -> ("1", Lang.Iprop.no_flags)
            in
            match
              ( decode_key m key,
                Mode.of_string mode,
                int_of_string_opt count,
                int_of_string_opt ndims,
                exact,
                clamped )
            with
            | Ok key, Some mode, Some count, Some ndims, ("0" | "1"), ("0" | "1")
              ->
              pending :=
                Some
                  ( key,
                    mode,
                    count,
                    ndims,
                    (exact = "1", clamped = "1", assumed),
                    [],
                    [] )
            | Error e, _, _, _, _, _ -> fail e
            | _ -> fail (Printf.sprintf "bad entry line %S" line)
          in
          match String.split_on_char ';' body |> List.map String.trim with
          | [ key; mode; count; ndims; exact; clamped; props ] ->
            parse_fields key mode count ndims exact clamped props
          | [ key; mode; count; ndims; exact; clamped ] ->
            (* legacy 6-field entry predating index-array properties *)
            parse_fields key mode count ndims exact clamped "-"
          | [ key; mode; count; ndims; exact ] ->
            (* legacy 5-field entry predating clamp tracking: read it
               conservatively, as a region that cannot prove in-bounds *)
            parse_fields key mode count ndims exact "1" "-"
          | _ -> fail (Printf.sprintf "bad entry line %S" line)
        end
        else if String.length line > 8 && String.sub line 0 8 = "strides " then begin
          match !pending with
          | None -> fail "strides outside entry"
          | Some (key, mode, count, ndims, exact, _, constrs) -> (
            let parts =
              String.sub line 8 (String.length line - 8)
              |> String.split_on_char ' '
              |> List.filter (fun s -> s <> "")
            in
            let decoded = List.map decode_stride parts in
            match
              List.fold_right
                (fun d acc ->
                  match d, acc with
                  | Ok s, Ok rest -> Ok (s :: rest)
                  | Error e, _ -> Error e
                  | _, (Error _ as e) -> e)
                decoded (Ok [])
            with
            | Ok strides ->
              pending := Some (key, mode, count, ndims, exact, strides, constrs)
            | Error e -> fail e)
        end
        else if line = "endentry" then finish_entry ()
        else begin
          match !pending with
          | None -> fail (Printf.sprintf "unexpected line %S" line)
          | Some (key, mode, count, ndims, exact, strides, constrs) -> (
            match decode_constr m line with
            | Ok c ->
              pending := Some (key, mode, count, ndims, exact, strides, c :: constrs)
            | Error e -> fail e)
        end)
    lines;
  match !err with
  | Some e -> Error e
  | None ->
    if !current_proc <> None then Error "missing endproc"
    else Ok (List.rev !result)

let save ~dir ~unit_name text =
  let path = Filename.concat dir (unit_name ^ ".ipl") in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path
