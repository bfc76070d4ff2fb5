(* Content-addressed store for per-PU analysis artifacts.

   Keys are MD5 digests computed by the engine from serialized WHIRL (see
   Engine): identical content — identical key, whatever process computed it.
   Values are Marshal images of collection results / summaries, plus enough
   metadata to re-intern their symbolic variables against the *current*
   process's registry:

   - [en_counter] is the variable-id counter snapshot at save time; loading
     advances the live counter past it so freshly minted ids can never
     collide with deserialized ones;
   - [en_syms] records, for every [Sym] variable in the value, which
     (procedure, st) it stood for.  On load those are looked up through
     [Ipa.Collect.sym_var], so a region loaded from disk constrains the very
     same variables a fresh analysis of the module would.

   Induction variables need no such treatment: they never escape their PU,
   so keeping their (counter-bumped) ids is enough.

   On-disk entries live under [dir/<schema>/], where <schema> is the
   build fingerprint (Build_info: a digest of the library sources, the
   OCaml version and the build settings, taken at build time) — Marshal
   images are only safe to read back into the layout that produced them,
   so a changed build simply starts a fresh cache namespace. *)

open Regions

type collect_payload = {
  cp_accesses : Ipa.Collect.access list;
  cp_sites : Ipa.Collect.site list;
}

type summary_payload = {
  sp_summary : Ipa.Summary.t;
  sp_propagated : Ipa.Collect.access list;
}

type 'a entry = {
  en_counter : int;
  en_syms : (int * string * int * string) list;
      (* saved var id, owning procedure ("" = global), st code, name *)
  en_value : 'a;
}

type t = {
  dir : string option;
  mem : (string, string) Hashtbl.t; (* full key -> marshaled entry *)
  mutex : Mutex.t;
  mutable diags : Fault.Diag.t list; (* degradation events, newest first *)
}

let schema_token = lazy (String.sub Build_info.fingerprint 0 12)

let create ?dir () =
  (match dir with
  | Some d ->
    (* concurrent processes may share [d]: whichever creates it first wins *)
    Obs.Ledger.mkdir_p (Filename.concat d (Lazy.force schema_token))
  | None -> ());
  { dir; mem = Hashtbl.create 64; mutex = Mutex.create (); diags = [] }

let in_memory () = create ()

let path_of t ns key =
  Option.map
    (fun d ->
      Filename.concat
        (Filename.concat d (Lazy.force schema_token))
        (Printf.sprintf "%s-%s.bin" ns (Digest.to_hex key)))
    t.dir

let full_key ns key = ns ^ Digest.to_hex key

(* ------------------------------------------------------------------ *)
(* Variable bookkeeping *)

let add_expr e acc =
  List.fold_left (fun a v -> Linear.Var.Set.add v a) acc (Linear.Expr.vars e)

let add_affine r acc =
  match r with
  | Affine.Affine e -> add_expr e acc
  | Affine.Sparse { Affine.sp_inner = Some e; _ } -> add_expr e acc
  | Affine.Sparse _ | Affine.Messy -> acc

let add_region (r : Region.t) acc =
  let acc = Linear.Var.Set.union (Linear.System.vars r.Region.sys) acc in
  List.fold_left
    (fun a (d : Region.dim) ->
      let a =
        match d.Region.lb with Region.Bsym e -> add_expr e a | _ -> a
      in
      match d.Region.ub with Region.Bsym e -> add_expr e a | _ -> a)
    acc (Region.dim_list r)

let add_access (a : Ipa.Collect.access) acc =
  add_region a.Ipa.Collect.ac_region acc

let add_loop ((_, lc) : int * Region.loop_ctx) acc =
  Linear.Var.Set.add lc.Region.lc_var
    (add_affine lc.Region.lc_lo (add_affine lc.Region.lc_hi acc))

let add_site (s : Ipa.Collect.site) acc =
  let acc =
    List.fold_left
      (fun a arg ->
        match arg with
        | Ipa.Collect.Arg_array_elem (_, coords) ->
          List.fold_left (fun a c -> add_affine c a) a coords
        | Ipa.Collect.Arg_value r -> add_affine r a
        | Ipa.Collect.Arg_array_whole _ | Ipa.Collect.Arg_scalar_ref _ -> a)
      acc s.Ipa.Collect.s_args
  in
  List.fold_left (fun a l -> add_loop l a) acc s.Ipa.Collect.s_loops

let add_summary (s : Ipa.Summary.t) acc =
  List.fold_left
    (fun a (e : Ipa.Summary.entry) -> add_region e.Ipa.Summary.e_region a)
    acc s

let syms_of vars =
  Linear.Var.Set.fold
    (fun v acc ->
      if Linear.Var.is_sym v then
        match Ipa.Collect.sym_info v with
        | Some (owner, st) ->
          (Linear.Var.id v, owner, st, Linear.Var.name v) :: acc
        | None -> acc
      else acc)
    vars []

(* ------------------------------------------------------------------ *)
(* Re-interning *)

let remap_fn m syms =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (id, owner, st, name) ->
      Hashtbl.replace tbl id (Ipa.Collect.sym_var ~m ~pu:owner ~st ~name))
    syms;
  fun v ->
    match Hashtbl.find_opt tbl (Linear.Var.id v) with
    | Some v' -> v'
    | None -> v

let map_affine f = function
  | Affine.Affine e -> Affine.Affine (Linear.Expr.map_vars f e)
  | Affine.Sparse s ->
    Affine.Sparse
      {
        s with
        Affine.sp_inner = Option.map (Linear.Expr.map_vars f) s.Affine.sp_inner;
      }
  | Affine.Messy -> Affine.Messy

let map_loop f ((st, lc) : int * Region.loop_ctx) =
  ( st,
    {
      Region.lc_var = f lc.Region.lc_var;
      lc_lo = map_affine f lc.Region.lc_lo;
      lc_hi = map_affine f lc.Region.lc_hi;
      lc_step = lc.Region.lc_step;
    } )

let map_access f (a : Ipa.Collect.access) =
  { a with Ipa.Collect.ac_region = Region.map_vars f a.Ipa.Collect.ac_region }

let map_site f (s : Ipa.Collect.site) =
  {
    s with
    Ipa.Collect.s_args =
      List.map
        (function
          | Ipa.Collect.Arg_array_elem (st, coords) ->
            Ipa.Collect.Arg_array_elem (st, List.map (map_affine f) coords)
          | Ipa.Collect.Arg_value r -> Ipa.Collect.Arg_value (map_affine f r)
          | (Ipa.Collect.Arg_array_whole _ | Ipa.Collect.Arg_scalar_ref _) as a
            -> a)
        s.Ipa.Collect.s_args;
    s_loops = List.map (map_loop f) s.Ipa.Collect.s_loops;
  }

let map_summary f (s : Ipa.Summary.t) : Ipa.Summary.t =
  List.map
    (fun (e : Ipa.Summary.entry) ->
      { e with Ipa.Summary.e_region = Region.map_vars f e.Ipa.Summary.e_region })
    s

(* ------------------------------------------------------------------ *)
(* Raw byte-level store *)

let mem_find t k =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.mem k in
  Mutex.unlock t.mutex;
  r

let mem_add t k v =
  Mutex.lock t.mutex;
  Hashtbl.replace t.mem k v;
  Mutex.unlock t.mutex

let mem_remove t k =
  Mutex.lock t.mutex;
  Hashtbl.remove t.mem k;
  Mutex.unlock t.mutex

(* store-layer observability: hit/miss counters per tier plus I/O latency
   histograms (the disk timings are only observed when metrics are on) *)
let c_mem_hits = Obs.Metrics.counter "store.mem.hits"
let c_disk_hits = Obs.Metrics.counter "store.disk.hits"
let c_misses = Obs.Metrics.counter "store.misses"
let c_disk_reads = Obs.Metrics.counter "store.disk.read_bytes"
let c_disk_writes = Obs.Metrics.counter "store.disk.write_bytes"
let c_write_errors = Obs.Metrics.counter "store.write_errors"
let c_read_errors = Obs.Metrics.counter "store.read_errors"
let c_retries = Obs.Metrics.counter "store.retries"
let c_quarantined = Obs.Metrics.counter "store.quarantined"
let c_publishes = Obs.Metrics.counter "store.publishes"
let c_publish_skips = Obs.Metrics.counter "store.publish_skips"
let h_find = Obs.Metrics.histogram "store.find.ns"
let h_add = Obs.Metrics.histogram "store.add.ns"

let record_diag t d =
  Mutex.lock t.mutex;
  t.diags <- d :: t.diags;
  Mutex.unlock t.mutex

let drain_diags t =
  Mutex.lock t.mutex;
  let ds = t.diags in
  t.diags <- [];
  Mutex.unlock t.mutex;
  List.rev ds

(* ------------------------------------------------------------------ *)
(* Checksummed on-disk entries with bounded retry.

   An entry is [magic | md5(payload) | payload]: truncation and bit-rot
   are caught by the digest check, not by Marshal blowing up mid-decode.
   A corrupt file is quarantined (renamed aside, so the evidence survives
   and the slot reads as a miss from then on) and the caller transparently
   recomputes.  Transient I/O errors — injected or real — are retried a
   few times with a short backoff; read exhaustion degrades to a cache
   miss, write exhaustion to an unpersisted (memory-only) entry.  Either
   way the analysis proceeds. *)

let entry_magic = "UHCS1\n"
let header_len = String.length entry_magic + 16
let max_attempts = 3

let backoff_s ~key attempt =
  (* exponential base with deterministic seeded jitter: splitmix64 over
     (pid, entry, attempt) spreads the sleep across [0.5x, 1.5x) so
     processes hammering one shared directory don't retry in lockstep, while
     staying reproducible for any given process/key/attempt triple *)
  let base = 0.0005 *. float_of_int (1 lsl attempt) in
  let h = Hashtbl.hash (Unix.getpid (), key, attempt) in
  let bits =
    Int64.shift_right_logical (Numeric.Splitmix.mix64 (Int64.of_int h)) 11
  in
  base *. (0.5 +. (Int64.to_float bits /. 9007199254740992.0))

(* written before the payload, which is never copied into one blob *)
let seal_header payload = entry_magic ^ Digest.string payload

(* the payload starts at [header_len]; checked in place, not copied *)
let sealed blob =
  String.length blob >= header_len
  && String.starts_with ~prefix:entry_magic blob
  && Digest.substring blob header_len (String.length blob - header_len)
     = String.sub blob (String.length entry_magic) 16

let quarantine t ~path ~basename reason =
  Obs.Metrics.Counter.incr c_quarantined;
  (try Sys.rename path (path ^ ".quarantined")
   with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
  Obs.Log.info "store.quarantined" [ ("entry", basename); ("reason", reason) ];
  record_diag t
    (Fault.Diag.make ~site:"store.marshal" ~pu:"*" ~action:"quarantined"
       (Printf.sprintf "cache entry %s: %s; recomputing" basename reason))

let read_file_once path =
  (* distinguishes "unreadable" (retryable) from "absent" (a plain miss) *)
  Fault.inject Fault.Io_read ~key:(Filename.basename path);
  if not (Sys.file_exists path) then `Absent
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    `Read s
  end

let read_file t path =
  let basename = Filename.basename path in
  let rec attempt k =
    match read_file_once path with
    | `Absent -> None
    | `Read s -> Some s
    | exception (Sys_error _ | End_of_file | Fault.Injected _) ->
      if k + 1 < max_attempts then begin
        Obs.Metrics.Counter.incr c_retries;
        Unix.sleepf (backoff_s ~key:basename k);
        attempt (k + 1)
      end
      else begin
        Obs.Metrics.Counter.incr c_read_errors;
        Obs.Log.info "store.read_failed"
          [ ("entry", basename); ("attempts", string_of_int max_attempts) ];
        record_diag t
          (Fault.Diag.make ~site:"store.read" ~pu:"*" ~action:"recomputed"
             (Printf.sprintf "cache read of %s failed after %d attempts"
                basename max_attempts));
        None
      end
  in
  attempt 0

let write_file_once path header payload =
  Fault.inject Fault.Io_write ~key:(Filename.basename path);
  let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output_string oc header;
     output_string oc payload
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

let write_file t path header payload =
  let basename = Filename.basename path in
  let rec attempt k =
    match write_file_once path header payload with
    | () -> true
    | exception (Sys_error _ | Fault.Injected _) ->
      if k + 1 < max_attempts then begin
        Obs.Metrics.Counter.incr c_retries;
        Unix.sleepf (backoff_s ~key:basename k);
        attempt (k + 1)
      end
      else begin
        Obs.Metrics.Counter.incr c_write_errors;
        Obs.Log.info "store.write_failed"
          [ ("entry", basename); ("attempts", string_of_int max_attempts) ];
        record_diag t
          (Fault.Diag.make ~site:"store.write" ~pu:"*" ~action:"unpersisted"
             (Printf.sprintf
                "cache write of %s failed after %d attempts; entry kept in \
                 memory only"
                basename max_attempts));
        false
      end
  in
  attempt 0

let observed h f =
  if not (Obs.Metrics.enabled ()) then f ()
  else begin
    let t0 = Obs.Trace.now_ns () in
    let r = f () in
    Obs.Hist.observe h (Obs.Trace.now_ns () - t0);
    r
  end

(* [find_raw] returns verified Marshal payloads, as (key, bytes, offset
   of the payload in bytes): the in-memory tier holds payloads that
   already passed the digest check, and a disk read whose seal does not
   verify quarantines the file and reads as a miss. *)
let find_raw ?(mem = true) t ns key =
  observed h_find @@ fun () ->
  let k = full_key ns key in
  match if mem then mem_find t k else None with
  | Some bytes ->
    Obs.Metrics.Counter.incr c_mem_hits;
    Some (k, bytes, 0)
  | None -> (
    match path_of t ns key with
    | None ->
      Obs.Metrics.Counter.incr c_misses;
      None
    | Some path -> (
      match read_file t path with
      | None ->
        Obs.Metrics.Counter.incr c_misses;
        None
      | Some blob -> (
        Obs.Metrics.Counter.add c_disk_reads (String.length blob);
        if not (sealed blob) then begin
          quarantine t ~path ~basename:(Filename.basename path)
            "checksum mismatch (corrupt or truncated)";
          Obs.Metrics.Counter.incr c_misses;
          None
        end
        else begin
          Obs.Metrics.Counter.incr c_disk_hits;
          if mem then begin
            let payload =
              String.sub blob header_len (String.length blob - header_len)
            in
            mem_add t k payload;
            Some (k, payload, 0)
          end
          else Some (k, blob, header_len)
        end)))

let add_raw ?(mem = true) t ns key bytes =
  observed h_add @@ fun () ->
  if mem then mem_add t (full_key ns key) bytes;
  match path_of t ns key with
  | None -> ()
  | Some path ->
    if Sys.file_exists path then
      (* single-writer discipline on the shared tier: keys are content
         addresses, so an existing file already holds these bytes —
         whoever published first wins and everyone else skips the write *)
      Obs.Metrics.Counter.incr c_publish_skips
    else begin
      if write_file t path (seal_header bytes) bytes then begin
        Obs.Metrics.Counter.incr c_publishes;
        Obs.Metrics.Counter.add c_disk_writes (header_len + String.length bytes)
      end
    end

(* Decode a verified payload; a decode failure (an injected marshal fault,
   or corruption the checksum cannot see such as a stale schema) evicts the
   memory entry, quarantines the disk file, and reads as a miss. *)
let decode_entry (type a) t ns key (k : string) (bytes : string) ofs : a option
    =
  match
    Fault.inject Fault.Marshal ~key:(full_key ns key);
    (Marshal.from_string bytes ofs : a)
  with
  | entry -> Some entry
  | exception (Failure _ | Invalid_argument _ | Fault.Injected _) ->
    mem_remove t k;
    (match path_of t ns key with
    | Some path when Sys.file_exists path ->
      quarantine t ~path ~basename:(Filename.basename path) "undecodable entry"
    | _ ->
      Obs.Metrics.Counter.incr c_quarantined;
      record_diag t
        (Fault.Diag.make ~site:"store.marshal" ~pu:"*" ~action:"recomputed"
           (Printf.sprintf "cache entry %s undecodable; recomputing"
              (full_key ns key))));
    None

(* ------------------------------------------------------------------ *)
(* Typed views.  The encoders build the entry image [add_raw] persists;
   [find_*] route the stored bytes through [decode_entry] (seal check,
   fault injection, quarantine) before re-interning them. *)

let collect_of_entry ~m (entry : collect_payload entry) : collect_payload =
  Linear.Var.advance_past entry.en_counter;
  let f = remap_fn m entry.en_syms in
  let p = entry.en_value in
  {
    cp_accesses = List.map (map_access f) p.cp_accesses;
    cp_sites = List.map (map_site f) p.cp_sites;
  }

let summary_of_entry ~m (entry : summary_payload entry) : summary_payload =
  Linear.Var.advance_past entry.en_counter;
  let f = remap_fn m entry.en_syms in
  let p = entry.en_value in
  {
    sp_summary = map_summary f p.sp_summary;
    sp_propagated = List.map (map_access f) p.sp_propagated;
  }

let encode_collect (p : collect_payload) =
  let vars =
    List.fold_left
      (fun a s -> add_site s a)
      (List.fold_left (fun a x -> add_access x a) Linear.Var.Set.empty
         p.cp_accesses)
      p.cp_sites
  in
  Marshal.to_string
    { en_counter = Linear.Var.current (); en_syms = syms_of vars; en_value = p }
    []

let encode_summary (p : summary_payload) =
  let vars =
    add_summary p.sp_summary
      (List.fold_left
         (fun a x -> add_access x a)
         Linear.Var.Set.empty p.sp_propagated)
  in
  Marshal.to_string
    { en_counter = Linear.Var.current (); en_syms = syms_of vars; en_value = p }
    []

let add_collect t ~key (p : collect_payload) =
  add_raw t "c" key (encode_collect p)

let find_collect t ~m ~key : collect_payload option =
  match find_raw t "c" key with
  | None -> None
  | Some (k, bytes, ofs) -> (
    match (decode_entry t "c" key k bytes ofs : collect_payload entry option) with
    | None -> None
    | Some entry -> Some (collect_of_entry ~m entry))

let add_summary t ~key (p : summary_payload) =
  add_raw t "s" key (encode_summary p)

let find_summary t ~m ~key : summary_payload option =
  match find_raw t "s" key with
  | None -> None
  | Some (k, bytes, ofs) -> (
    match (decode_entry t "s" key k bytes ofs : summary_payload entry option) with
    | None -> None
    | Some entry -> Some (summary_of_entry ~m entry))

(* ------------------------------------------------------------------ *)
(* Frontend artifacts: disk only.  Each is read at most once per process,
   so the memory tier would only hold megabytes nobody reads again. *)

type body_artifact = {
  ba_body : Lang.Sema.body;
  ba_pus : Whirl.Ir.pu list;
}

let find_artifact (type a) t ns key : a option =
  match find_raw ~mem:false t ns key with
  | None -> None
  | Some (k, bytes, ofs) -> (decode_entry t ns key k bytes ofs : a option)

let add_artifact t ns key v =
  if t.dir <> None then add_raw ~mem:false t ns key (Marshal.to_string v [])

let find_interface t ~key : Lang.Sema.interface option =
  find_artifact t "fi" key

let add_interface t ~key (i : Lang.Sema.interface) = add_artifact t "fi" key i
let find_body t ~key : body_artifact option = find_artifact t "fb" key
let add_body t ~key (b : body_artifact) = add_artifact t "fb" key b
let dir t = t.dir
let schema () = Lazy.force schema_token

let entry_count t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.mem in
  Mutex.unlock t.mutex;
  n
