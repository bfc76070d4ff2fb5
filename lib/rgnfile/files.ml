type dgn = {
  dgn_sources : (string * string) list;
  dgn_procs : (string * string * int) list;
  dgn_edges : (string * string * int) list;
}

type cfg_block = {
  cb_proc : string;
  cb_id : int;
  cb_label : string;
  cb_succs : int list;
}

(* minimal CSV with double-quote escaping, written straight into the
   output buffer; only fields that need it are quoted *)

let needs_quoting c = c = ',' || c = '"' || c = '\n'

let add_field buf f =
  if not (String.exists needs_quoting f) then Buffer.add_string buf f
  else begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      f;
    Buffer.add_char buf '"'
  end

let add_row buf fields =
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      add_field buf f)
    fields;
  Buffer.add_char buf '\n'

let join_csv fields =
  let buf = Buffer.create 64 in
  add_row buf fields;
  Buffer.sub buf 0 (Buffer.length buf - 1)

let split_csv line =
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let n = String.length line in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = line.[!i] in
    if !in_quotes then
      if c = '"' then
        if !i + 1 < n && line.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          i := !i + 2
        end
        else begin
          in_quotes := false;
          incr i
        end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    else if c = '"' then begin
      in_quotes := true;
      incr i
    end
    else if c = ',' then begin
      fields := Buffer.contents buf :: !fields;
      Buffer.clear buf;
      incr i
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  fields := Buffer.contents buf :: !fields;
  List.rev !fields

(* Records are newline-terminated, except that a quoted field may itself
   contain newlines; blank records are skipped. *)
let lines_of s =
  let records = ref [] in
  let n = String.length s in
  let start = ref 0 in
  let in_quotes = ref false in
  let flush i =
    let r = String.sub s !start (i - !start) in
    if String.trim r <> "" then records := r :: !records;
    start := i + 1
  in
  for i = 0 to n - 1 do
    match s.[i] with
    | '"' -> in_quotes := not !in_quotes
    | '\n' when not !in_quotes -> flush i
    | _ -> ()
  done;
  if !start < n then flush n;
  List.rev !records

(* ------------------------------------------------------------------ *)
(* .rgn *)

let write_rgn rows =
  let buf = Buffer.create (64 + (96 * List.length rows)) in
  add_row buf Row.header;
  List.iter (fun r -> add_row buf (Row.to_fields r)) rows;
  Buffer.contents buf

let parse_rgn s =
  match lines_of s with
  | [] -> Error "empty .rgn file"
  | header :: rows ->
    if
      let h = split_csv header in
      h <> Row.header && h <> Row.legacy_header
    then Error "bad .rgn header"
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
          match Row.of_fields (split_csv line) with
          | Ok r -> go (r :: acc) rest
          | Error e -> Error (Printf.sprintf "%s (line: %s)" e line))
      in
      go [] rows

(* ------------------------------------------------------------------ *)
(* .dgn *)

let write_dgn d =
  let buf = Buffer.create 512 in
  List.iter
    (fun (path, lang) ->
      add_row buf [ "source"; path; lang ])
    d.dgn_sources;
  List.iter
    (fun (name, file, line) ->
      add_row buf [ "proc"; name; file; string_of_int line ])
    d.dgn_procs;
  List.iter
    (fun (caller, callee, line) ->
      add_row buf [ "edge"; caller; callee; string_of_int line ])
    d.dgn_edges;
  Buffer.contents buf

let parse_dgn s =
  let sources = ref [] and procs = ref [] and edges = ref [] in
  let err = ref None in
  List.iter
    (fun line ->
      if !err = None then
        match split_csv line with
        | [ "source"; path; lang ] -> sources := (path, lang) :: !sources
        | [ "proc"; name; file; ln ] -> (
          match int_of_string_opt ln with
          | Some ln -> procs := (name, file, ln) :: !procs
          | None -> err := Some ("bad proc line: " ^ line))
        | [ "edge"; caller; callee; ln ] -> (
          match int_of_string_opt ln with
          | Some ln -> edges := (caller, callee, ln) :: !edges
          | None -> err := Some ("bad edge line: " ^ line))
        | _ -> err := Some ("unrecognized .dgn line: " ^ line))
    (lines_of s);
  match !err with
  | Some e -> Error e
  | None ->
    Ok
      {
        dgn_sources = List.rev !sources;
        dgn_procs = List.rev !procs;
        dgn_edges = List.rev !edges;
      }

(* ------------------------------------------------------------------ *)
(* .cfg *)

let write_cfg blocks =
  let buf = Buffer.create 512 in
  List.iter
    (fun b ->
      add_row buf
        [
          b.cb_proc;
          string_of_int b.cb_id;
          b.cb_label;
          String.concat ";" (List.map string_of_int b.cb_succs);
        ])
    blocks;
  Buffer.contents buf

let parse_cfg s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match split_csv line with
      | [ proc; id; label; succs ] -> (
        match int_of_string_opt id with
        | None -> Error ("bad block id: " ^ line)
        | Some id ->
          let succs =
            if succs = "" then []
            else
              String.split_on_char ';' succs
              |> List.filter_map int_of_string_opt
          in
          go ({ cb_proc = proc; cb_id = id; cb_label = label; cb_succs = succs } :: acc)
            rest)
      | _ -> Error ("unrecognized .cfg line: " ^ line))
  in
  go [] (lines_of s)

let c_saves = Obs.Metrics.counter "files.saves"
let c_save_bytes = Obs.Metrics.counter "files.save_bytes"
let c_loads = Obs.Metrics.counter "files.loads"
let c_load_bytes = Obs.Metrics.counter "files.load_bytes"

let save ~path contents =
  Obs.Span.with_ ~cat:"io" ~name:("save:" ^ Filename.basename path)
  @@ fun () ->
  Obs.Metrics.Counter.incr c_saves;
  Obs.Metrics.Counter.add c_save_bytes (String.length contents);
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let load ~path =
  Obs.Span.with_ ~cat:"io" ~name:("load:" ^ Filename.basename path)
  @@ fun () ->
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Obs.Metrics.Counter.incr c_loads;
  Obs.Metrics.Counter.add c_load_bytes len;
  s
