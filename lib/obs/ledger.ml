(* The persistent run ledger: one schema-versioned JSON record per
   pipeline run, appended under <cache-dir>/ledger/.

   This module knows nothing about the engine.  It owns the mechanics
   (run-id generation, durable appends, reading the records back) and the
   one record it shares with its readers, the per-PU entry.  The rest of
   the record is assembled and checked by the pipeline (lib/engine) and
   consumed by dragon history/regress/explain.

   Concurrency: every run writes its own file, named by the run id, via
   write-to-temp + rename — two processes sharing a cache directory can
   never interleave bytes or clobber each other, and a reader only ever
   sees complete records.  Run ids order lexicographically by wall-clock
   start time (nanosecond hex, zero-padded), so a directory listing is the
   run history. *)

let schema_version = 1
let dir ~cache_dir = Filename.concat cache_dir "ledger"

(* <ns-since-epoch:016x>-<pid:06d>-<seq:04d>: time-ordered across
   machines-with-one-clock, collision-free across processes (pid) and
   within a process (seq). *)
let seq = Atomic.make 0

let new_run_id () =
  let ns = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  Printf.sprintf "%016Lx-%06d-%04d" ns
    (Unix.getpid () mod 1_000_000)
    (Atomic.fetch_and_add seq 1)

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let record_path ~cache_dir ~run_id =
  Filename.concat (dir ~cache_dir) (run_id ^ ".jsonl")

let append ~cache_dir ~run_id record =
  let d = dir ~cache_dir in
  mkdir_p d;
  let final = record_path ~cache_dir ~run_id in
  let tmp = final ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc record;
  if String.length record = 0 || record.[String.length record - 1] <> '\n'
  then output_char oc '\n';
  close_out oc;
  Sys.rename tmp final;
  final

(* Every parseable record in the ledger, oldest first.  A record's run id
   is read from the record itself when present (one file can hold several
   JSONL lines), falling back to the file name; unreadable or half-written
   files are skipped — a reader must tolerate a concurrent writer. *)
let read_all ~cache_dir =
  let d = dir ~cache_dir in
  let files =
    match Sys.readdir d with
    | entries ->
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.sort compare
    | exception Sys_error _ -> []
  in
  List.concat_map
    (fun file ->
      let path = Filename.concat d file in
      match
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        s
      with
      | exception Sys_error _ -> []
      | contents ->
        String.split_on_char '\n' contents
        |> List.filter_map (fun line ->
               if String.trim line = "" then None
               else
                 match Json.parse line with
                 | Error _ -> None
                 | Ok record ->
                   let run_id =
                     match
                       Option.bind (Json.member "run_id" record)
                         Json.to_string
                     with
                     | Some id -> id
                     | None -> Filename.chop_suffix file ".jsonl"
                   in
                   Some (run_id, record)))
    files
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* One procedure's incrementality entry, the record's "pus" array *)
type pu = {
  pu_name : string;
  pu_file : string;
  pu_key1 : string;
  pu_key2 : string;
  pu_collect_hit : bool;
  pu_summary_hit : bool;
  pu_callees : string list;
}

let pu_to_json p =
  Json.Obj
    [
      ("name", Json.Str p.pu_name);
      ("file", Json.Str p.pu_file);
      ("key1", Json.Str p.pu_key1);
      ("key2", Json.Str p.pu_key2);
      ("collect_hit", Json.Bool p.pu_collect_hit);
      ("summary_hit", Json.Bool p.pu_summary_hit);
      ("callees", Json.List (List.map (fun c -> Json.Str c) p.pu_callees));
    ]

let pu_of_json e =
  try
    let str k =
      match Json.member k e with
      | Some (Json.Str s) -> s
      | _ -> Json.malformed "pu entry without string %S" k
    in
    let flag k =
      match Json.member k e with
      | Some (Json.Bool b) -> b
      | _ -> Json.malformed "pu entry without boolean %S" k
    in
    let pu_name = str "name" in
    let pu_file = str "file" in
    let pu_key1 = str "key1" in
    let pu_key2 = str "key2" in
    let pu_collect_hit = flag "collect_hit" in
    let pu_summary_hit = flag "summary_hit" in
    let pu_callees =
      match Json.member "callees" e with
      | Some (Json.List l) ->
        List.map
          (function
            | Json.Str c -> c
            | _ -> Json.malformed "pu entry callee is not a string")
          l
      | _ -> Json.malformed "pu entry without list \"callees\""
    in
    Ok
      { pu_name; pu_file; pu_key1; pu_key2; pu_collect_hit; pu_summary_hit;
        pu_callees }
  with Json.Malformed m -> Error m

(* Collision-safe variant of a user-chosen output path: "out/trace.json"
   with run id R becomes "out/trace-R.json", so concurrent runs sharing a
   directory never overwrite each other's traces or metrics dumps. *)
let suffixed_path ~run_id path =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  let stem = Filename.remove_extension base in
  let ext = Filename.extension base in
  Filename.concat dir (stem ^ "-" ^ run_id ^ ext)
