(* Content-addressed store for per-PU analysis artifacts.

   Keys are MD5 digests computed by the engine from serialized WHIRL (see
   Engine): identical content — identical key, whatever process computed it.
   Values are Marshal images of collection results / summaries, plus the
   writer's variable-id counter:

   - a hit names the same symbolic variables the reading process computes.
     [Ipa.Collect.sym_var] derives each id from what [key1] digests (the
     global table index, or the owner's module position and st code), and
     a name from the same tables.  A collect entry is keyed by its PU's
     [key1]; a summary entry by [key2], which folds in the [key1] of the
     PU and of every transitive callee, the only PUs whose variables its
     regions name.  So a stored value is re-interned as it is (see
     "Re-interning"), never renamed;
   - [en_counter] is the writer's variable-id counter at save time: loading
     advances the live counter past it, so an induction variable minted
     here never collides with a deserialized one.  Induction variables
     never escape their PU, so keeping their ids is enough.

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
  en_writer : Digest.t;
      (* the writing process ([writer_token]): its intern ids name the same
         content in every entry it wrote *)
  en_value : 'a;
}

(* How a decoded entry's values are rebuilt in this process: its
   expressions and its systems (see "Re-interning"). *)
type relink = {
  rl_expr : Linear.Expr.t -> Linear.Expr.t;
  rl_sys : Linear.System.t -> Linear.System.t;
}

(* A published segment file, or the producer's unpublished temp file. *)
type seg = {
  mutable path : string;
  lock : Mutex.t; (* guards [ic] *)
  mutable ic : in_channel option; (* opened by the first read *)
  mutable damaged : bool; (* set aside by the next publish *)
  mutable size : int; (* payload bytes its index lists *)
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
  relinks : (Digest.t, relink) Hashtbl.t; (* per writer, see [writer_relink] *)
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
(* Re-interning

   A decoded entry holds the writer's values: canonical there, and over
   the variables this process computes (see the header), but not interned
   here.  Each is rebuilt through its writer's [relink], which only looks
   up intern ids.  The writer's intern ids name contents across everything
   that process wrote, so a relink memoizes on them once per writer for
   the whole run (the entries of one cold run share most of their
   systems). *)

let writer_token =
  Digest.string
    (Printf.sprintf "%d %.6f %d" (Unix.getpid ()) (Unix.gettimeofday ())
       (Random.State.bits (Random.State.make_self_init ())))

(* [f], memoized on the writer's intern id of its argument; lookups may come
   from several domains (two that race both intern the same value) *)
let memo id f =
  let tbl = Hashtbl.create 64 and lock = Mutex.create () in
  fun x ->
    let k = id x in
    match Mutex.protect lock (fun () -> Hashtbl.find_opt tbl k) with
    | Some y -> y
    | None ->
      let y = f x in
      Mutex.protect lock (fun () -> Hashtbl.replace tbl k y);
      y

(* The stored values are canonical as they are: only their intern ids are
   looked up.  It does not depend on the entry, so one serves every entry
   of a writer. *)
let new_relink () =
  let expr = memo Linear.Expr.id Linear.Expr.reintern in
  let constr = memo Linear.Constr.id (Linear.Constr.reintern expr) in
  {
    rl_expr = expr;
    rl_sys = memo Linear.System.id (Linear.System.reintern constr);
  }

let relink_region rl = Region.reintern ~expr:rl.rl_expr ~sys:rl.rl_sys

let relink_affine rl = function
  | Affine.Affine e -> Affine.Affine (rl.rl_expr e)
  | Affine.Sparse s ->
    Affine.Sparse
      { s with Affine.sp_inner = Option.map rl.rl_expr s.Affine.sp_inner }
  | Affine.Messy -> Affine.Messy

let relink_loop rl ((st, lc) : int * Region.loop_ctx) =
  ( st,
    {
      lc with
      Region.lc_lo = relink_affine rl lc.Region.lc_lo;
      lc_hi = relink_affine rl lc.Region.lc_hi;
    } )

let relink_access rl (a : Ipa.Collect.access) =
  { a with Ipa.Collect.ac_region = relink_region rl a.Ipa.Collect.ac_region }

let relink_site rl (s : Ipa.Collect.site) =
  {
    s with
    Ipa.Collect.s_args =
      List.map
        (function
          | Ipa.Collect.Arg_array_elem (st, coords) ->
            Ipa.Collect.Arg_array_elem (st, List.map (relink_affine rl) coords)
          | Ipa.Collect.Arg_value r -> Ipa.Collect.Arg_value (relink_affine rl r)
          | (Ipa.Collect.Arg_array_whole _ | Ipa.Collect.Arg_scalar_ref _) as a
            -> a)
        s.Ipa.Collect.s_args;
    s_loops = List.map (relink_loop rl) s.Ipa.Collect.s_loops;
  }

let relink_summary rl (s : Ipa.Summary.t) : Ipa.Summary.t =
  List.map
    (fun (e : Ipa.Summary.entry) ->
      { e with Ipa.Summary.e_region = relink_region rl e.Ipa.Summary.e_region })
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
   [segment_cap] segments merges the smallest of them the same way (see
   [carried_segments]), which bounds the cost of opening a store by a
   constant, not by the number of past runs, without re-reading the whole
   store every few runs.

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

let new_seg ?(size = 0) path =
  { path; lock = Mutex.create (); ic = None; damaged = false; size }

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
    let size = List.fold_left (fun n (_, _, len, _) -> n + len) 0 es in
    let seg = new_seg ~size path in
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
      relinks = Hashtbl.create 4;
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
   corruption the checksum cannot see such as a stale schema, or an
   [Error] from [decode]) drops the entry — marking its segment damaged —
   and reads as a miss. *)
let decode_entry t ns key ~decode (bytes : string) =
  let name = entry_name ns key in
  match
    match
      Fault.inject Fault.Marshal ~key:name;
      decode bytes
    with
    | r -> r
    | exception (Failure _ | Invalid_argument _ | Fault.Injected _) ->
      Error "undecodable entry"
  with
  | Ok entry -> Some entry
  | Error reason ->
    let k = full_key ns key in
    (match locked t (fun () -> Hashtbl.find_opt t.table k) with
    | Some ({ at = Some _; _ } as slot) ->
      drop_slot t k slot;
      quarantined t ~name reason
    | slot ->
      Option.iter (drop_slot t k) slot;
      Obs.Metrics.Counter.incr c_quarantined;
      record_diag t
        (Fault.Diag.make ~site:"store.marshal" ~pu:"*" ~action:"recomputed"
           (Printf.sprintf "cache entry %s undecodable; recomputing" name)));
    None

let unmarshal bytes = Ok (Marshal.from_string bytes 0)

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
    w.w_seg.size <- w.w_pos - header_len;
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

(* The segments a publish carries into its own: every damaged one, and,
   once the handle opened more than [segment_cap], the smallest ones,
   enough to leave [segment_cap / 2] (the new one included). *)
let carried_segments segs =
  let n = List.length segs in
  let small =
    if n <= segment_cap then []
    else
      List.sort (fun a b -> compare a.size b.size) segs
      |> List.filteri (fun i _ -> i <= n - (segment_cap / 2))
  in
  List.filter (fun s -> s.damaged || List.memq s small) segs

let publish t =
  match t.sdir with
  | None -> ()
  | Some sdir ->
    let sources = carried_segments t.segs in
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

(* the relink of [writer]'s entries, one per writer per handle *)
let writer_relink t writer =
  locked t (fun () ->
      match Hashtbl.find_opt t.relinks writer with
      | Some rl -> rl
      | None ->
        let rl = new_relink () in
        Hashtbl.add t.relinks writer rl;
        rl)

let collect_of_entry t (entry : collect_payload entry) : collect_payload =
  Linear.Var.advance_past entry.en_counter;
  let rl = writer_relink t entry.en_writer in
  let p = entry.en_value in
  {
    cp_accesses = List.map (relink_access rl) p.cp_accesses;
    cp_sites = List.map (relink_site rl) p.cp_sites;
  }

let summary_of_entry t (entry : summary_payload entry) : summary_payload =
  Linear.Var.advance_past entry.en_counter;
  let rl = writer_relink t entry.en_writer in
  let p = entry.en_value in
  {
    sp_summary = relink_summary rl p.sp_summary;
    sp_propagated = List.map (relink_access rl) p.sp_propagated;
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
  Marshal.to_string
    {
      en_counter = Linear.Var.current ();
      en_writer = writer_token;
      en_value =
        {
          p with
          cp_accesses =
            List.map (detach_access (region_detacher ())) p.cp_accesses;
        };
    }
    []

let encode_summary (p : summary_payload) =
  let detach = region_detacher () in
  Marshal.to_string
    {
      en_counter = Linear.Var.current ();
      en_writer = writer_token;
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

let find_decoded ~keep ?(decode = unmarshal) t ns key =
  match find_raw ~keep t ns key with
  | None -> None
  | Some bytes -> decode_entry t ns key ~decode bytes

let add_collect t ~key (p : collect_payload) =
  add_raw ~keep:true t "c" key (encode_collect p)

let find_collect t ~key : collect_payload option =
  Option.map (collect_of_entry t) (find_decoded ~keep:true t "c" key)

let add_summary t ~key (p : summary_payload) =
  add_raw ~keep:true t "s" key (encode_summary p)

let find_summary t ~key : summary_payload option =
  Option.map (summary_of_entry t) (find_decoded ~keep:true t "s" key)

(* ------------------------------------------------------------------ *)
(* Frontend artifacts: disk only, never held in memory.  Each is read at
   most once per process, so holding it would only keep megabytes nobody
   reads again.  A file's WN trees ([fw]) live apart from the rest of its
   body artifact ([fb]) under the same key: a run reads them only for a
   body something asks for. *)

type carried = {
  ca_digest : Digest.t;
  ca_sites : Ipa.Callgraph.callsite list;
  ca_cfg : Cfg.t;
}

type pu_header = {
  ph_name : string;
  ph_st : int;
  ph_formals : Whirl.Symtab.st_idx list;
  ph_symtab : Whirl.Symtab.t;
  ph_loc : Lang.Loc.t;
  ph_file : string;
  ph_object : string;
  ph_lang : Lang.Ast.language;
  ph_carried : carried;
}

type body_artifact = {
  ba_body : Lang.Sema.body;
  ba_pus : pu_header list;
}

let add_artifact t ns key v =
  if t.dir <> None then add_raw ~keep:false t ns key (Marshal.to_string v [])

let find_interface t ~key : Lang.Sema.interface option =
  find_decoded ~keep:false t "fi" key

let add_interface t ~key (i : Lang.Sema.interface) = add_artifact t "fi" key i
let find_body t ~key : body_artifact option = find_decoded ~keep:false t "fb" key
let add_body t ~key (b : body_artifact) = add_artifact t "fb" key b

let find_trees t ~key ~decode : Whirl.Wn.t array option =
  find_decoded ~keep:false ~decode t "fw" key

let add_trees t ~key image =
  if t.dir <> None then add_raw ~keep:false t "fw" key image

let has_trees t ~key =
  match locked t (fun () -> Hashtbl.find_opt t.table (full_key "fw" key)) with
  | Some { at = Some _; _ } | Some { mem = Some _; _ } -> true
  | Some { at = None; mem = None } | None -> false

let dir t = t.dir
let schema () = schema_token
