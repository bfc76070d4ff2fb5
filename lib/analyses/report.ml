let schema_version = 1

type t = {
  r_analysis : string;
  r_summary : (string * string) list;
  r_columns : string list;
  r_rows : string list list;
}

(* The rules a report obeys, shared by [make] and [parse]: a named
   analysis, at least one column, and every row as wide as the columns. *)
let check ~analysis ~columns rows =
  if analysis = "" then Obs.Json.malformed "report without analysis name";
  if columns = [] then Obs.Json.malformed "report %s: missing columns" analysis;
  let width = List.length columns in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        Obs.Json.malformed "report %s: row %d has %d cells for %d columns"
          analysis i (List.length row) width)
    rows

let make ~analysis ~summary ~columns rows =
  (try check ~analysis ~columns rows
   with Obs.Json.Malformed m -> invalid_arg ("Report.make: " ^ m));
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

(* ------------------------------------------------------------------ *)
(* Reading a reports file back: [json] of what [parse] returns is the
   same bytes *)

let strings ~what = function
  | Obs.Json.List items ->
    List.map
      (function
        | Obs.Json.Str s -> s | _ -> Obs.Json.malformed "%s: not a string" what)
      items
  | _ -> Obs.Json.malformed "%s is not a list" what

let report_of_json j =
  let member k = Obs.Json.member k j in
  let analysis =
    match member "analysis" with
    | Some (Obs.Json.Str s) -> s
    | _ -> Obs.Json.malformed "report without analysis name"
  in
  let what fmt =
    Printf.ksprintf (fun s -> "report " ^ analysis ^ ": " ^ s) fmt
  in
  let summary =
    match member "summary" with
    | Some (Obs.Json.Obj kvs) ->
      List.map
        (function
          | k, Obs.Json.Str v -> (k, v)
          | k, _ ->
            Obs.Json.malformed "%s" (what "summary %S is not a string" k))
        kvs
    | _ -> Obs.Json.malformed "%s" (what "missing summary object")
  in
  let columns =
    Option.fold ~none:[] ~some:(strings ~what:(what "columns"))
      (member "columns")
  in
  let rows =
    match member "rows" with
    | Some (Obs.Json.List rows) ->
      List.mapi (fun i -> strings ~what:(what "row %d" i)) rows
    | _ -> Obs.Json.malformed "%s" (what "missing rows")
  in
  check ~analysis ~columns rows;
  { r_analysis = analysis; r_summary = summary; r_columns = columns;
    r_rows = rows }

let parse =
  Obs.Json.decode (fun doc ->
      Obs.Json.require_version ~what:"reports file" schema_version doc;
      match Obs.Json.member "reports" doc with
      | Some (Obs.Json.List items) -> List.map report_of_json items
      | _ -> Obs.Json.malformed "reports file without a reports array")

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
  List.iter line t.r_rows;
  Format.pp_print_string ppf (Buffer.contents b);
  Format.pp_print_cut ppf ()
