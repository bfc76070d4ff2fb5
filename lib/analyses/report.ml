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
   it (a report can hold tens of thousands of cells) *)

let add_quoted b s =
  Buffer.add_char b '"';
  Obs.Json.add_escaped b s;
  Buffer.add_char b '"'

let add_string_array b cells =
  Buffer.add_char b '[';
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ", ";
      add_quoted b c)
    cells;
  Buffer.add_char b ']'

let add_report b t =
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
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n        ";
      add_string_array b row)
    t.r_rows;
  if t.r_rows <> [] then Buffer.add_string b "\n      ";
  Buffer.add_string b "]\n    }"

let json_of_reports reports =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\n  \"schema_version\": ";
  Buffer.add_string b (string_of_int schema_version);
  Buffer.add_string b ",\n  \"reports\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      add_report b r)
    reports;
  if reports <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

let save ~path reports =
  let oc = open_out_bin path in
  output_string oc (json_of_reports reports);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Text table: each line is assembled in one reused buffer and handed to
   the formatter whole *)

let render ppf t =
  Format.fprintf ppf "== analysis: %s ==@," t.r_analysis;
  let b = Buffer.create 256 in
  let emit () =
    Format.pp_print_string ppf (Buffer.contents b);
    Format.pp_print_cut ppf ();
    Buffer.clear b
  in
  if t.r_summary <> [] then begin
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b "  ";
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v)
      t.r_summary;
    emit ()
  end;
  if t.r_columns <> [] then begin
    let ncols = List.length t.r_columns in
    let widths = Array.make ncols 0 in
    let measure row =
      List.iteri
        (fun i c ->
          if i < ncols then widths.(i) <- max widths.(i) (String.length c))
        row
    in
    measure t.r_columns;
    List.iter measure t.r_rows;
    let line row =
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string b "  ";
          Buffer.add_string b c;
          (* last column unpadded: keeps lines free of trailing spaces *)
          if i < ncols - 1 then
            for _ = String.length c to widths.(i) - 1 do
              Buffer.add_char b ' '
            done)
        row;
      emit ()
    in
    line t.r_columns;
    List.iter line t.r_rows
  end
