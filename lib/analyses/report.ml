let schema_version = 1

type t = {
  r_analysis : string;
  r_summary : (string * string) list;
  r_columns : string list;
  r_rows : string list list;
}

let make ~analysis ~summary ~columns rows =
  let width = List.length columns in
  List.iter
    (fun row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Report.make: %s row has %d cells for %d columns"
             analysis (List.length row) width))
    rows;
  { r_analysis = analysis; r_summary = summary; r_columns = columns;
    r_rows = rows }

(* ------------------------------------------------------------------ *)
(* JSON: written straight into one buffer, escaping only cells that need
   it (a report can hold hundreds of thousands of cells, so the walks
   below are plain recursion, not per-cell closures) *)

let add_quoted b s =
  Buffer.add_char b '"';
  Obs.Json.add_escaped b s;
  Buffer.add_char b '"'

let rec add_cells b = function
  | [] -> ()
  | [ c ] -> add_quoted b c
  | c :: rest ->
    add_quoted b c;
    Buffer.add_string b ", ";
    add_cells b rest

let add_string_array b cells =
  Buffer.add_char b '[';
  add_cells b cells;
  Buffer.add_char b ']'

let rec add_rows b ~yield = function
  | [] -> ()
  | row :: rest ->
    Buffer.add_string b "\n        ";
    add_string_array b row;
    if rest <> [] then Buffer.add_char b ',';
    yield ();
    add_rows b ~yield rest

let add_report b ~yield t =
  Buffer.add_string b "    {\n      \"analysis\": ";
  add_quoted b t.r_analysis;
  Buffer.add_string b ",\n      \"summary\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      add_quoted b k;
      Buffer.add_string b ": ";
      add_quoted b v)
    t.r_summary;
  Buffer.add_string b "},\n      \"columns\": ";
  add_string_array b t.r_columns;
  Buffer.add_string b ",\n      \"rows\": [";
  add_rows b ~yield t.r_rows;
  if t.r_rows <> [] then Buffer.add_string b "\n      ";
  Buffer.add_string b "]\n    }"

let json reports b ~yield =
  Buffer.add_string b "{\n  \"schema_version\": ";
  Buffer.add_string b (string_of_int schema_version);
  Buffer.add_string b ",\n  \"reports\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      add_report b ~yield r)
    reports;
  if reports <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n"

let json_of_reports reports = Rgnfile.Files.to_string (json reports)

let save ~path reports = Rgnfile.Files.save_text ~path (json reports)

(* ------------------------------------------------------------------ *)
(* Text table.  The lines go to the formatter as newline-separated blocks
   of about a kilobyte, each one string token, then one cut: the bytes of
   one token and one cut per line inside a vertical box, at a fraction of
   the formatter's per-token cost, and every block stays small enough for
   the minor heap. *)

let block = 1024

let render ppf t =
  let b = Buffer.create (2 * block) in
  let yield () =
    if Buffer.length b >= block then begin
      Format.pp_print_string ppf (Buffer.contents b);
      Buffer.clear b
    end
  in
  Buffer.add_string b "== analysis: ";
  Buffer.add_string b t.r_analysis;
  Buffer.add_string b " ==";
  if t.r_summary <> [] then begin
    Buffer.add_char b '\n';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b "  ";
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v)
      t.r_summary
  end;
  if t.r_columns <> [] then begin
    let ncols = List.length t.r_columns in
    let widths = Array.make ncols 0 in
    let rec measure i = function
      | c :: rest when i < ncols ->
        let w = String.length c in
        if w > widths.(i) then widths.(i) <- w;
        measure (i + 1) rest
      | _ -> ()
    in
    measure 0 t.r_columns;
    List.iter (measure 0) t.r_rows;
    let blanks = String.make (Array.fold_left max 0 widths) ' ' in
    (* the last column is unpadded: lines stay free of trailing spaces *)
    let rec cells i = function
      | [] -> ()
      | c :: rest ->
        if i > 0 then Buffer.add_string b "  ";
        Buffer.add_string b c;
        if i < ncols - 1 then begin
          let pad = widths.(i) - String.length c in
          if pad > 0 then Buffer.add_substring b blanks 0 pad
        end;
        cells (i + 1) rest
    in
    let line row =
      yield ();
      Buffer.add_char b '\n';
      cells 0 row
    in
    line t.r_columns;
    List.iter line t.r_rows
  end;
  Format.pp_print_string ppf (Buffer.contents b);
  Format.pp_print_cut ppf ()
