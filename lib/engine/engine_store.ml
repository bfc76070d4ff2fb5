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
   so a changed build simply starts a fresh cache namespace.  Inside it,
   each producer (one [Frontend_cache.load], one [Engine.run]) publishes
   the entries it added as one pack segment; see "Pack segments" below. *)

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

(* A published segment file, or the producer's unpublished temp file. *)
type seg = {
  mutable path : string;
  lock : Mutex.t; (* guards [ic] *)
  mutable ic : in_channel option; (* opened by the first read *)
  mutable damaged : bool; (* set aside by the next publish *)
}

type loc = { seg : seg; off : int; len : int; md5 : Digest.t }

(* The store's one table maps each key to its payload: in memory, at an
   offset in a segment, or both (a verified read of an analysis entry). *)
type slot = { at : loc option; mutable mem : string option }

type writer = {
  w_seg : seg;
  w_oc : out_channel;
  mutable w_pos : int;
  mutable w_index : (string * loc) list; (* newest first *)
}

type t = {
  dir : string option;
  sdir : string option; (* [dir/<schema>] *)
  table : (string, slot) Hashtbl.t; (* ns ^ raw digest -> slot *)
  mutex : Mutex.t;
  mutable segs : seg list; (* published segments this handle indexed *)
  mutable writer : writer option;
  mutable diags : Fault.Diag.t list; (* degradation events, newest first *)
}

let schema_token = String.sub Build_info.fingerprint 0 12
let full_key ns key = ns ^ key
let entry_name ns key = ns ^ "-" ^ Digest.to_hex key

(* the (namespace, digest) pair of a full key *)
let split_key k =
  let nl = String.length k - 16 in
  (String.sub k 0 nl, String.sub k nl 16)

let name_of_key k =
  let ns, key = split_key k in
  entry_name ns key

let locked t f = Mutex.protect t.mutex f

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
(* Observability and degradation events *)

(* store-layer observability: hit/miss counters per tier plus I/O latency
   histograms (the timings are only observed when metrics are on) *)
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

let record_diag t d = locked t (fun () -> t.diags <- d :: t.diags)

let drain_diags t =
  locked t (fun () ->
      let ds = t.diags in
      t.diags <- [];
      List.rev ds)

let quarantined t ~name reason =
  Obs.Metrics.Counter.incr c_quarantined;
  Obs.Log.info "store.quarantined" [ ("entry", name); ("reason", reason) ];
  record_diag t
    (Fault.Diag.make ~site:"store.marshal" ~pu:"*" ~action:"quarantined"
       (Printf.sprintf "cache entry %s: %s; recomputing" name reason))

let observed h f =
  if not (Obs.Metrics.enabled ()) then f ()
  else begin
    let t0 = Obs.Trace.now_ns () in
    let r = f () in
    Obs.Hist.observe h (Obs.Trace.now_ns () - t0);
    r
  end

(* ------------------------------------------------------------------ *)
(* Pack segments.

   A producer streams each entry it adds, in order, into one private temp
   file ([pack.tmp.<pid>.<n>]); [publish] appends the index and renames the
   file to [<name>.seg], so readers only ever see complete segments:

     magic | payload ... | index | index offset | md5(index) | magic

   with one index record per entry: key length (1 byte), key (namespace ^
   raw digest), payload offset and length (int64 LE), md5(payload).

   Opening a store reads every segment's index into the table; a lookup
   reads one payload and checks its md5 before anything decodes it.  A
   payload that fails the check, or a segment whose index is malformed,
   reads as a miss and marks its segment damaged: the next publish carries
   the segment's intact entries into the new segment and renames the file
   aside ([.quarantined]), so the damaged bytes survive for inspection and
   the next run is fully warm.  A handle that opened more than
   [segment_cap] segments merges them the same way, which bounds the cost
   of opening a store by a constant, not by the number of past runs.

   Transient I/O errors — injected or real — are retried a few times with
   a short backoff; read exhaustion degrades to a cache miss, write
   exhaustion to an unpersisted (memory-only) entry.  Either way the
   analysis proceeds. *)

let seg_magic = "UHCPACK1"
let header_len = String.length seg_magic
let trailer_len = 8 + 16 + String.length seg_magic
let segment_cap = 8
let max_attempts = 3
let writer_seq = Atomic.make 0

let new_seg path =
  { path; lock = Mutex.create (); ic = None; damaged = false }

let close_reader seg =
  Mutex.protect seg.lock (fun () ->
      Option.iter close_in_noerr seg.ic;
      seg.ic <- None)

let segment_files sdir =
  match Sys.readdir sdir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun f -> Filename.check_suffix f ".seg")
    |> List.sort compare
    |> List.map (Filename.concat sdir)

let parse_index ~index_off idx =
  let n = String.length idx in
  let rec go pos acc =
    if pos = n then Some (List.rev acc)
    else
      let kl = Char.code idx.[pos] in
      if pos + 1 + kl + 32 > n then None
      else
        let k = String.sub idx (pos + 1) kl in
        let off = Int64.to_int (String.get_int64_le idx (pos + 1 + kl)) in
        let len = Int64.to_int (String.get_int64_le idx (pos + 9 + kl)) in
        let md5 = String.sub idx (pos + 17 + kl) 16 in
        if off < header_len || len < 0 || off > index_off - len then None
        else go (pos + 33 + kl) ((k, off, len, md5) :: acc)
  in
  go 0 []

(* [`Gone] (absent or unreadable: not evidence of damage), [`Malformed],
   or the index records (full key, payload offset, length, md5) *)
let read_index path =
  match open_in_bin path with
  | exception Sys_error _ -> `Gone
  | ic -> (
    let index () =
      let size = in_channel_length ic in
      if size < header_len + trailer_len then None
      else begin
        let head = really_input_string ic header_len in
        seek_in ic (size - trailer_len);
        let tr = really_input_string ic trailer_len in
        let index_off = Int64.to_int (String.get_int64_le tr 0) in
        if
          head <> seg_magic
          || String.sub tr 24 header_len <> seg_magic
          || index_off < header_len
          || index_off > size - trailer_len
        then None
        else begin
          seek_in ic index_off;
          let idx = really_input_string ic (size - trailer_len - index_off) in
          Obs.Metrics.Counter.add c_disk_reads
            (header_len + trailer_len + String.length idx);
          if Digest.string idx <> String.sub tr 8 16 then None
          else parse_index ~index_off idx
        end
      end
    in
    match Fun.protect ~finally:(fun () -> close_in_noerr ic) index with
    | Some entries -> `Entries entries
    | None | (exception End_of_file) -> `Malformed
    | exception Sys_error _ -> `Gone)

let segment_index path =
  match read_index path with
  | `Entries es ->
    Some
      (List.map
         (fun (k, off, len, _) ->
           let ns, key = split_key k in
           (ns, key, off, len))
         es)
  | `Gone | `Malformed -> None

(* Index one segment into the table.  Keys already present keep their
   slot: they are content addresses, so any copy holds the same bytes. *)
let add_segment t path index =
  match index with
  | `Gone -> None
  | `Malformed ->
    let seg = new_seg path in
    seg.damaged <- true;
    t.segs <- seg :: t.segs;
    quarantined t ~name:(Filename.basename path) "malformed segment index";
    None
  | `Entries es ->
    let seg = new_seg path in
    t.segs <- seg :: t.segs;
    locked t (fun () ->
        List.iter
          (fun (k, off, len, md5) ->
            if not (Hashtbl.mem t.table k) then
              Hashtbl.add t.table k
                { at = Some { seg; off; len; md5 }; mem = None })
          es);
    Some (seg, es)

let create ?dir () =
  let sdir =
    Option.map (fun d -> Filename.concat d schema_token) dir
  in
  let indexes =
    match sdir with
    | None -> []
    | Some sdir ->
      (* concurrent processes may share [dir]: whichever creates it first
         wins *)
      Obs.Ledger.mkdir_p sdir;
      List.map (fun p -> (p, read_index p)) (segment_files sdir)
  in
  let entries =
    List.fold_left
      (fun n (_, index) ->
        match index with `Entries es -> n + List.length es | _ -> n)
      0 indexes
  in
  let t =
    {
      dir;
      sdir;
      table = Hashtbl.create (max 64 entries);
      mutex = Mutex.create ();
      segs = [];
      writer = None;
      diags = [];
    }
  in
  List.iter (fun (p, index) -> ignore (add_segment t p index)) indexes;
  t

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

(* [op] under the retry policy: [None] once [max_attempts] attempts
   failed, after counting [errors] and recording [on_exhaust]'s
   diagnostic *)
let with_retries t ~name ~errors ~on_exhaust op =
  let rec attempt k =
    match op () with
    | r -> Some r
    | exception (Sys_error _ | End_of_file | Fault.Injected _) ->
      if k + 1 < max_attempts then begin
        Obs.Metrics.Counter.incr c_retries;
        Unix.sleepf (backoff_s ~key:name k);
        attempt (k + 1)
      end
      else begin
        Obs.Metrics.Counter.incr errors;
        record_diag t (on_exhaust ());
        None
      end
  in
  attempt 0

(* ------------------------------------------------------------------ *)
(* Reads *)

let read_at t loc =
  Mutex.protect loc.seg.lock @@ fun () ->
  (* an entry this producer added and has not published yet *)
  (match t.writer with
  | Some w when w.w_seg == loc.seg -> flush w.w_oc
  | _ -> ());
  let ic =
    match loc.seg.ic with
    | Some ic -> ic
    | None ->
      let ic = open_in_bin loc.seg.path in
      loc.seg.ic <- Some ic;
      ic
  in
  seek_in ic loc.off;
  really_input_string ic loc.len

exception Gone

let read_payload t ~name loc =
  match
    with_retries t ~name ~errors:c_read_errors
      ~on_exhaust:(fun () ->
        Obs.Log.info "store.read_failed"
          [ ("entry", name); ("attempts", string_of_int max_attempts) ];
        Fault.Diag.make ~site:"store.read" ~pu:"*" ~action:"recomputed"
          (Printf.sprintf "cache read of %s failed after %d attempts" name
             max_attempts))
      (fun () ->
        Fault.inject Fault.Io_read ~key:name;
        match read_at t loc with
        | bytes -> bytes
        | exception Sys_error _ when not (Sys.file_exists loc.seg.path) ->
          (* merged or set aside by another handle: a plain miss *)
          raise Gone)
  with
  | r -> r
  | exception Gone -> None

let drop_slot t k slot =
  locked t (fun () ->
      (match slot.at with Some loc -> loc.seg.damaged <- true | None -> ());
      match Hashtbl.find_opt t.table k with
      | Some s when s == slot -> Hashtbl.remove t.table k
      | _ -> ())

let checksum_mismatch t k slot =
  drop_slot t k slot;
  quarantined t ~name:(name_of_key k) "checksum mismatch (corrupt or truncated)"

(* [find_raw] returns verified Marshal payloads: a payload held in memory
   passed the md5 check when it was read (or was added by this process),
   and a segment read whose md5 does not match reads as a miss. *)
let find_raw ~keep t ns key =
  observed h_find @@ fun () ->
  let k = full_key ns key in
  let miss () =
    Obs.Metrics.Counter.incr c_misses;
    None
  in
  match locked t (fun () -> Hashtbl.find_opt t.table k) with
  | None | Some { at = None; mem = None } -> miss ()
  | Some { mem = Some bytes; _ } ->
    Obs.Metrics.Counter.incr c_mem_hits;
    Some bytes
  | Some ({ at = Some loc; mem = None } as slot) -> (
    let name = entry_name ns key in
    match read_payload t ~name loc with
    | None -> miss ()
    | Some bytes ->
      Obs.Metrics.Counter.add c_disk_reads loc.len;
      if Digest.string bytes <> loc.md5 then begin
        checksum_mismatch t k slot;
        miss ()
      end
      else begin
        Obs.Metrics.Counter.incr c_disk_hits;
        if keep then locked t (fun () -> slot.mem <- Some bytes);
        Some bytes
      end)

(* Decode a verified payload; a decode failure (an injected marshal fault,
   or corruption the checksum cannot see such as a stale schema) drops the
   entry — marking its segment damaged — and reads as a miss. *)
let decode_entry (type a) t ns key (bytes : string) : a option =
  let name = entry_name ns key in
  match
    Fault.inject Fault.Marshal ~key:name;
    (Marshal.from_string bytes 0 : a)
  with
  | entry -> Some entry
  | exception (Failure _ | Invalid_argument _ | Fault.Injected _) ->
    let k = full_key ns key in
    (match locked t (fun () -> Hashtbl.find_opt t.table k) with
    | Some ({ at = Some _; _ } as slot) ->
      drop_slot t k slot;
      quarantined t ~name "undecodable entry"
    | slot ->
      Option.iter (drop_slot t k) slot;
      Obs.Metrics.Counter.incr c_quarantined;
      record_diag t
        (Fault.Diag.make ~site:"store.marshal" ~pu:"*" ~action:"recomputed"
           (Printf.sprintf "cache entry %s undecodable; recomputing" name)));
    None

(* ------------------------------------------------------------------ *)
(* Writes *)

let open_writer t sdir =
  let path =
    Filename.concat sdir
      (Printf.sprintf "pack.tmp.%d.%d" (Unix.getpid ())
         (Atomic.fetch_and_add writer_seq 1))
  in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path
  in
  let w = { w_seg = new_seg path; w_oc = oc; w_pos = 0; w_index = [] } in
  t.writer <- Some w;
  output_string oc seg_magic;
  w.w_pos <- header_len;
  Obs.Metrics.Counter.add c_disk_writes header_len;
  w

(* Drop the unpublished segment: its entries stay in memory where they are
   held, and are gone otherwise. *)
let abandon_writer t w =
  close_out_noerr w.w_oc;
  close_reader w.w_seg;
  (try Sys.remove w.w_seg.path with Sys_error _ -> ());
  t.writer <- None;
  locked t (fun () ->
      List.iter
        (fun (k, _) ->
          match Hashtbl.find_opt t.table k with
          | Some { at = Some l; mem } when l.seg == w.w_seg -> (
            match mem with
            | Some _ -> Hashtbl.replace t.table k { at = None; mem }
            | None -> Hashtbl.remove t.table k)
          | _ -> ())
        w.w_index)

(* Stream [bytes] into this producer's segment; [md5] goes into its index. *)
let append t sdir k ~md5 bytes =
  let w = match t.writer with Some w -> w | None -> open_writer t sdir in
  (try output_string w.w_oc bytes
   with e ->
     abandon_writer t w;
     raise e);
  let loc = { seg = w.w_seg; off = w.w_pos; len = String.length bytes; md5 } in
  w.w_pos <- w.w_pos + loc.len;
  w.w_index <- (k, loc) :: w.w_index;
  Obs.Metrics.Counter.add c_disk_writes loc.len;
  loc

let add_raw ~keep t ns key bytes =
  observed h_add @@ fun () ->
  let k = full_key ns key in
  match t.sdir with
  | None -> locked t (fun () -> Hashtbl.replace t.table k { at = None; mem = Some bytes })
  | Some sdir -> (
    match locked t (fun () -> Hashtbl.find_opt t.table k) with
    | Some { at = Some _; _ } ->
      (* single-writer discipline on the shared tier: keys are content
         addresses, so a stored key already holds these bytes — whoever
         published first wins and everyone else skips the write *)
      Obs.Metrics.Counter.incr c_publish_skips
    | _ ->
      let name = entry_name ns key in
      let at =
        with_retries t ~name ~errors:c_write_errors
          ~on_exhaust:(fun () ->
            Obs.Log.info "store.write_failed"
              [ ("entry", name); ("attempts", string_of_int max_attempts) ];
            Fault.Diag.make ~site:"store.write" ~pu:"*" ~action:"unpersisted"
              (Printf.sprintf
                 "cache write of %s failed after %d attempts; entry kept in \
                  memory only"
                 name max_attempts))
          (fun () ->
            Fault.inject Fault.Io_write ~key:name;
            append t sdir k ~md5:(Digest.string bytes) bytes)
      in
      let mem = if keep then Some bytes else None in
      if at <> None || keep then
        locked t (fun () -> Hashtbl.replace t.table k { at; mem }))

(* ------------------------------------------------------------------ *)
(* Publishing *)

(* Keys another handle published after this one opened: drop them from
   the unpublished index (their bytes stay behind as dead space) and point
   their slots at the published copy. *)
let skip_published_elsewhere t sdir w =
  let known = List.map (fun s -> s.path) t.segs in
  List.iter
    (fun path ->
      if not (List.mem path known) then
        match add_segment t path (read_index path) with
        | None -> ()
        | Some (seg, es) ->
          let theirs = Hashtbl.create (List.length es) in
          List.iter
            (fun (k, off, len, md5) ->
              Hashtbl.replace theirs k { seg; off; len; md5 })
            es;
          w.w_index <-
            List.filter
              (fun (k, _) ->
                match Hashtbl.find_opt theirs k with
                | None -> true
                | Some loc ->
                  Obs.Metrics.Counter.incr c_publish_skips;
                  locked t (fun () ->
                      let mem =
                        match Hashtbl.find_opt t.table k with
                        | Some s -> s.mem
                        | None -> None
                      in
                      Hashtbl.replace t.table k { at = Some loc; mem });
                  false)
              w.w_index)
    (segment_files sdir)

(* Copy the live entries of [sources] into this producer's segment, in
   file order, verifying every payload not already held in memory.
   Returns the slots to install once the segment is published. *)
let carry t sdir sources =
  let live =
    locked t (fun () ->
        Hashtbl.fold
          (fun k slot acc ->
            match slot.at with
            | Some loc when List.memq loc.seg sources -> (k, slot, loc) :: acc
            | _ -> acc)
          t.table [])
    |> List.sort (fun (_, _, a) (_, _, b) ->
           compare (a.seg.path, a.off) (b.seg.path, b.off))
  in
  List.filter_map
    (fun (k, slot, loc) ->
      let bytes =
        match slot.mem with
        | Some b -> Some b
        | None -> (
          match read_at t loc with
          | b ->
            Obs.Metrics.Counter.add c_disk_reads loc.len;
            if Digest.string b = loc.md5 then Some b
            else begin
              checksum_mismatch t k slot;
              None
            end
          | exception (Sys_error _ | End_of_file) -> None)
      in
      Option.map
        (fun b ->
          let at = append t sdir k ~md5:loc.md5 b in
          (k, { at = Some at; mem = slot.mem }))
        bytes)
    live

(* Append the index and rename the temp file into place; [None] when the
   segment would be empty (its temp file is removed). *)
let seal t sdir =
  match t.writer with
  | None -> None
  | Some w when w.w_index = [] ->
    abandon_writer t w;
    None
  | Some w ->
    let b = Buffer.create (64 * List.length w.w_index) in
    List.iter
      (fun (k, loc) ->
        Buffer.add_char b (Char.chr (String.length k));
        Buffer.add_string b k;
        Buffer.add_int64_le b (Int64.of_int loc.off);
        Buffer.add_int64_le b (Int64.of_int loc.len);
        Buffer.add_string b loc.md5)
      (List.rev w.w_index);
    let idx = Buffer.contents b in
    let idx_md5 = Digest.string idx in
    output_string w.w_oc idx;
    let tr = Buffer.create trailer_len in
    Buffer.add_int64_le tr (Int64.of_int w.w_pos);
    Buffer.add_string tr idx_md5;
    Buffer.add_string tr seg_magic;
    Buffer.output_buffer w.w_oc tr;
    close_out w.w_oc;
    Obs.Metrics.Counter.add c_disk_writes (String.length idx + trailer_len);
    let rec fresh () =
      let p =
        Filename.concat sdir
          (Printf.sprintf "%s-%d-%d.seg"
             (String.sub (Digest.to_hex idx_md5) 0 12)
             (Unix.getpid ())
             (Atomic.fetch_and_add writer_seq 1))
      in
      if Sys.file_exists p then fresh () else p
    in
    let path = fresh () in
    Sys.rename w.w_seg.path path;
    close_reader w.w_seg;
    w.w_seg.path <- path;
    t.writer <- None;
    Some w.w_seg

(* Retire a carried segment: a damaged one is renamed aside, a merged one
   removed.  Readers that listed it treat it as absent. *)
let retire seg =
  close_reader seg;
  if seg.damaged then begin
    Obs.Log.info "store.set_aside" [ ("segment", Filename.basename seg.path) ];
    try Sys.rename seg.path (seg.path ^ ".quarantined")
    with Sys_error _ -> ( try Sys.remove seg.path with Sys_error _ -> ())
  end
  else try Sys.remove seg.path with Sys_error _ -> ()

let publish t =
  match t.sdir with
  | None -> ()
  | Some sdir ->
    let merging = List.length t.segs > segment_cap in
    let sources = List.filter (fun s -> merging || s.damaged) t.segs in
    if t.writer <> None || sources <> [] then begin
      Option.iter (skip_published_elsewhere t sdir) t.writer;
      let fresh =
        match t.writer with Some w -> List.length w.w_index | None -> 0
      in
      match
        let moved = carry t sdir sources in
        (moved, seal t sdir)
      with
      | moved, published ->
        locked t (fun () ->
            List.iter (fun (k, slot) -> Hashtbl.replace t.table k slot) moved);
        Obs.Metrics.Counter.add c_publishes fresh;
        List.iter retire sources;
        t.segs <-
          Option.to_list published
          @ List.filter (fun s -> not (List.memq s sources)) t.segs
      | exception (Sys_error _ as e) ->
        (* the unpublished entries stay in memory only; the carried
           segments stay where they are *)
        Option.iter (abandon_writer t) t.writer;
        Obs.Metrics.Counter.incr c_write_errors;
        Obs.Log.info "store.publish_failed"
          [ ("error", Printexc.to_string e) ];
        record_diag t
          (Fault.Diag.make ~site:"store.write" ~pu:"*" ~action:"unpersisted"
             (Printf.sprintf
                "cache segment publish failed (%s); entries kept in memory \
                 only"
                (Printexc.to_string e)))
    end;
    List.iter close_reader t.segs

(* ------------------------------------------------------------------ *)
(* Typed views.  The encoders build the entry image [add_raw] persists;
   [find_*] route the verified bytes through [decode_entry] (fault
   injection, quarantine) before re-interning them. *)

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

(* Entry images carry each system's constraints only, never its
   process-local solver caches (see [Linear.System.detach]).  One image
   detaches each system once, so a system several regions share is still
   stored once. *)
let region_detacher () =
  let detached = Hashtbl.create 16 in
  Region.detach (fun s ->
      let id = Linear.System.id s in
      match Hashtbl.find_opt detached id with
      | Some d -> d
      | None ->
        let d = Linear.System.detach s in
        Hashtbl.add detached id d;
        d)

let detach_access detach (a : Ipa.Collect.access) =
  { a with ac_region = detach a.Ipa.Collect.ac_region }

let encode_collect (p : collect_payload) =
  let vars =
    List.fold_left
      (fun a s -> add_site s a)
      (List.fold_left (fun a x -> add_access x a) Linear.Var.Set.empty
         p.cp_accesses)
      p.cp_sites
  in
  Marshal.to_string
    {
      en_counter = Linear.Var.current ();
      en_syms = syms_of vars;
      en_value =
        {
          p with
          cp_accesses =
            List.map (detach_access (region_detacher ())) p.cp_accesses;
        };
    }
    []

let encode_summary (p : summary_payload) =
  let vars =
    add_summary p.sp_summary
      (List.fold_left
         (fun a x -> add_access x a)
         Linear.Var.Set.empty p.sp_propagated)
  in
  let detach = region_detacher () in
  Marshal.to_string
    {
      en_counter = Linear.Var.current ();
      en_syms = syms_of vars;
      en_value =
        {
          sp_summary =
            List.map
              (fun (e : Ipa.Summary.entry) ->
                { e with e_region = detach e.Ipa.Summary.e_region })
              p.sp_summary;
          sp_propagated = List.map (detach_access detach) p.sp_propagated;
        };
    }
    []

let find_decoded ~keep t ns key =
  match find_raw ~keep t ns key with
  | None -> None
  | Some bytes -> decode_entry t ns key bytes

let add_collect t ~key (p : collect_payload) =
  add_raw ~keep:true t "c" key (encode_collect p)

let find_collect t ~m ~key : collect_payload option =
  Option.map (collect_of_entry ~m) (find_decoded ~keep:true t "c" key)

let add_summary t ~key (p : summary_payload) =
  add_raw ~keep:true t "s" key (encode_summary p)

let find_summary t ~m ~key : summary_payload option =
  Option.map (summary_of_entry ~m) (find_decoded ~keep:true t "s" key)

(* ------------------------------------------------------------------ *)
(* Frontend artifacts: disk only, never held in memory.  Each is read at
   most once per process, so holding it would only keep megabytes nobody
   reads again. *)

type body_artifact = {
  ba_body : Lang.Sema.body;
  ba_pus : Whirl.Ir.pu list;
}

let add_artifact t ns key v =
  if t.dir <> None then add_raw ~keep:false t ns key (Marshal.to_string v [])

let find_interface t ~key : Lang.Sema.interface option =
  find_decoded ~keep:false t "fi" key

let add_interface t ~key (i : Lang.Sema.interface) = add_artifact t "fi" key i
let find_body t ~key : body_artifact option = find_decoded ~keep:false t "fb" key
let add_body t ~key (b : body_artifact) = add_artifact t "fb" key b
let dir t = t.dir
let schema () = schema_token
