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

type text = Buffer.t -> yield:(unit -> unit) -> unit

let to_string (text : text) =
  let buf = Buffer.create 4096 in
  text buf ~yield:ignore;
  Buffer.contents buf

let join_csv fields =
  let buf = Buffer.create 64 in
  Csv.add_record buf fields;
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

let rgn rows buf ~yield =
  Csv.add_record buf Row.header;
  List.iter
    (fun r ->
      Row.add_record buf r;
      yield ())
    rows

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

let dgn d buf ~yield =
  let record tag a b line =
    Buffer.add_string buf tag;
    Csv.add_field buf a;
    Buffer.add_char buf ',';
    Csv.add_field buf b;
    Buffer.add_char buf ',';
    Csv.add_int buf line;
    Buffer.add_char buf '\n';
    yield ()
  in
  List.iter
    (fun (path, lang) ->
      Buffer.add_string buf "source,";
      Csv.add_field buf path;
      Buffer.add_char buf ',';
      Csv.add_field buf lang;
      Buffer.add_char buf '\n';
      yield ())
    d.dgn_sources;
  List.iter (fun (name, file, line) -> record "proc," name file line) d.dgn_procs;
  List.iter
    (fun (caller, callee, line) -> record "edge," caller callee line)
    d.dgn_edges

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

let add_cfg_block buf ~proc ~id ~label ~succs =
  Csv.add_field buf proc;
  Buffer.add_char buf ',';
  Csv.add_int buf id;
  Buffer.add_char buf ',';
  Csv.add_field buf label;
  Buffer.add_char buf ',';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ';';
      Csv.add_int buf s)
    succs;
  Buffer.add_char buf '\n'

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
let c_unchanged = Obs.Metrics.counter "files.unchanged"
let c_loads = Obs.Metrics.counter "files.loads"
let c_load_bytes = Obs.Metrics.counter "files.load_bytes"

(* A save first compares what it would write with the existing file, as
   it is produced, and stops at the first difference; only then does it
   write, producing the text again into the truncated file.  Only a
   regular file is read: opening a FIFO or a device for reading could
   block or consume its input. *)

let window = 65536

exception Differs

type destination = Absent | Regular of int | Special

let destination path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> Regular st_size
  | _ -> Special
  | exception Unix.Unix_error _ -> Absent

(* [a.[0, n)] = [b.[off, off + n)], eight bytes at a time *)
let same_bytes a b off n =
  let rec words i =
    i + 8 > n
    || Int64.equal (Bytes.get_int64_ne a i) (Bytes.get_int64_ne b (off + i))
       && words (i + 8)
  and tail i =
    i >= n || (Bytes.get a i = Bytes.get b (off + i) && tail (i + 1))
  in
  words 0 && tail (n land lnot 7)

(* The regular file at [path], [size] bytes long, holds exactly the bytes
   [chunks] feeds: [chunks feed] calls [feed b off n] for each piece in
   order, and [feed] raises [Differs] at the first piece that disagrees. *)
let holds path size chunks =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    let old = Bytes.create (min size window) in
    let pos = ref 0 in
    let rec feed b off n =
      if n > 0 then begin
        let k = min window n in
        if !pos + k > size then raise Differs;
        (try really_input ic old 0 k
         with End_of_file | Sys_error _ -> raise Differs);
        if not (same_bytes old b off k) then raise Differs;
        pos := !pos + k;
        feed b (off + k) (n - k)
      end
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    match chunks feed with () -> !pos = size | exception Differs -> false

let saving ~path ~chunks ~write =
  Obs.Span.with_ ~cat:"io" ~name:("save:" ^ Filename.basename path)
  @@ fun () ->
  Obs.Metrics.Counter.incr c_saves;
  let dest = destination path in
  let unchanged =
    match dest with
    | Regular size -> holds path size chunks
    | Absent | Special -> false
  in
  if unchanged then Obs.Metrics.Counter.incr c_unchanged
  else begin
    let oc = open_out_bin path in
    match write oc with
    | () -> close_out oc
    | exception e ->
      (* a failed save leaves no partial file behind (a FIFO or a device
         is never removed) *)
      close_out_noerr oc;
      if dest <> Special then (try Sys.remove path with Sys_error _ -> ());
      raise e
  end

let save ~path contents =
  saving ~path
    ~chunks:(fun feed ->
      feed (Bytes.unsafe_of_string contents) 0 (String.length contents))
    ~write:(fun oc ->
      Obs.Metrics.Counter.add c_save_bytes (String.length contents);
      output_string oc contents)

(* [text] run into [buf], which [drain] empties every [window] bytes *)
let produce buf (text : text) drain =
  text buf ~yield:(fun () -> if Buffer.length buf >= window then drain ());
  drain ()

let save_text ~path (text : text) =
  let buf = Buffer.create 4096 in
  saving ~path
    ~chunks:(fun feed ->
      let mine = ref Bytes.empty in
      produce buf text (fun () ->
          let n = Buffer.length buf in
          if Bytes.length !mine < n then mine := Bytes.create n;
          Buffer.blit buf 0 !mine 0 n;
          feed !mine 0 n;
          Buffer.clear buf))
    ~write:(fun oc ->
      Buffer.clear buf;
      produce buf text (fun () ->
          Obs.Metrics.Counter.add c_save_bytes (Buffer.length buf);
          Buffer.output_buffer oc buf;
          Buffer.clear buf))

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
