(** Content-addressed store for per-PU analysis artifacts.

    Maps engine-computed digests (of serialized WHIRL content, see
    [Engine]) to collection results and interprocedural summaries.  Entries
    live in memory and, when the store was created with [~dir], also on
    disk — so repeated tool invocations over unchanged sources only
    re-analyze what changed.

    A hit names the same symbolic variables the reading process computes:
    [Ipa.Collect.sym_var] derives each variable's id from what [key1]
    digests (the global table index, or the owner's module position and
    st code), a collect entry is keyed by its PU's [key1], and a summary
    entry by [key2], which folds in the [key1] of every PU whose variables
    it can name (the PU and its transitive callees).  So loaded values are
    only re-interned: the stored expressions, constraints and systems are
    already canonical and their intern ids are looked up
    ({!Linear.System.reintern}), each distinct one a writer stored once
    per handle.  A cache hit yields structures indistinguishable from a
    fresh analysis.  Lookups are
    safe to issue from several domains concurrently; additions and
    {!publish} are expected from the coordinating domain.

    On disk, each producer ({!Frontend_cache.load}, {!Engine.run}) streams
    the entries it adds into one process-private temp file, and {!publish}
    turns that file into one {e pack segment} by atomic [rename]: the
    payloads in order, then an index of every entry's key, offset, length
    and MD5.  Opening a store reads only the segment indexes; a lookup
    reads one payload and checks its MD5 before decoding it.

    The directory is a {e shared tier}: several [uhc] processes may hold
    stores over one [~dir] (one [--cache-dir]).  Readers only ever see
    complete segments.  Before publishing, a handle re-lists the directory
    and skips every key another handle published since it opened
    ([store.publish_skips]), which is sound because keys are content
    addresses (same key = same bytes).  A segment that a reader listed but
    another handle has since merged away reads as absent, and corrupt
    entries heal through the quarantine-then-recompute path. *)

type collect_payload = {
  cp_accesses : Ipa.Collect.access list;
  cp_sites : Ipa.Collect.site list;
}

type summary_payload = {
  sp_summary : Ipa.Summary.t;
  sp_propagated : Ipa.Collect.access list;
      (** accesses charged to callers via call sites ([ac_via] set) *)
}

type t

val create : ?dir:string -> unit -> t
(** With [~dir], entries are persisted as pack segments
    [dir/<schema>/<name>.seg]; the schema component is the build
    fingerprint ({!Build_info.fingerprint}: library sources, OCaml version,
    build settings), because Marshal images are only readable by a build
    with the same type layouts.  Computed at build time, so opening a
    store reads no executable.  The directories are created as needed.
    Opening reads every segment's index, and no payload.  Without [~dir],
    entries are cached within the process only (e.g. across [--fuse]
    re-analysis). *)

val publish : t -> unit
(** Seal the entries added since the last publish into one segment and
    rename it into place; a no-op without [~dir].  It also carries the
    intact entries of every segment found damaged into the new segment
    and renames the damaged file aside ([.quarantined]), and, when this
    handle opened more than {!segment_cap} segments, merges the smallest
    of them into the new one and removes them, leaving
    [segment_cap / 2]: a merge rewrites what recent runs added, not the
    first cold run's bulk.  Never raises: a failed write
    leaves the entries in memory only ([store.write_errors]) and no temp
    file behind.  {!Engine.run} and {!Frontend_cache.load} publish before
    they return. *)

val segment_cap : int
(** The number of segments a handle may open before its next {!publish}
    merges them: a directory holds at most [segment_cap + 1] segments
    after any run that publishes twice (frontend and engine). *)

val segment_index : string -> (string * Digest.t * int * int) list option
(** The entries a segment file lists — namespace, key, payload offset and
    payload length, in file order — or [None] if its index is truncated or
    malformed.  For inspecting a cache directory. *)

val add_collect : t -> key:Digest.t -> collect_payload -> unit

val find_collect : t -> key:Digest.t -> collect_payload option
(** [None] on a genuine miss and on any unreadable/corrupt entry.

    The store self-heals: every on-disk payload is checked against the MD5
    in its segment's index, and an entry that fails the check or cannot be
    decoded is quarantined (counted in the [store.quarantined] metric,
    recorded as a {!Fault.Diag.t}, its segment set aside by the next
    {!publish}) so the caller transparently recomputes it.
    Transient read/write failures are retried up to 3 times with a short
    backoff ([store.retries]); exhaustion degrades a read to a miss
    ([store.read_errors]) and a write to a memory-only entry
    ([store.write_errors]), never an exception. *)

val add_summary : t -> key:Digest.t -> summary_payload -> unit

val find_summary : t -> key:Digest.t -> summary_payload option

val dir : t -> string option
(** The backing directory, if the store is disk-backed. *)

val schema : unit -> string
(** The build's schema fingerprint (12 hex digits of
    {!Build_info.fingerprint}) — the namespace component of on-disk
    paths: Marshal images written by one build are only read back by a
    build with the same fingerprint. *)

val drain_diags : t -> Fault.Diag.t list
(** Degradation events (quarantines, retry exhaustions) recorded since the
    last drain, oldest first.  {!Engine.run} drains them into its result. *)

(** {2 Frontend artifacts}

    Per-file results of separate compilation ({!Frontend_cache}), persisted
    in the same segments with the same MD5 check, quarantine, retry,
    publish and fault-injection paths as the analysis entries.  A file has
    three: its interface (namespace [fi]); its body artifact ([fb]: what
    linking, the module and the engine need of the file's PUs, without
    their WN trees); and, under the same key as [fb], the trees ([fw]),
    read only when a body is asked for ({!Whirl.Ir.body}).  [fi] and [fb]
    are Marshal images; [fw] is the tree part of the PUs' content images
    ({!Whirl.Whirl_io.encode_trees}), so a tree read back is checked
    against the digest its PU carries.  Their payloads are never held in
    memory: a process reads each at most once.  Without [~dir] every add
    is dropped and every find misses. *)

type carried = {
  ca_digest : Digest.t;  (** {!Whirl.Whirl_io.pu_digest} *)
  ca_sites : Ipa.Callgraph.callsite list;  (** {!Ipa.Callgraph.sites_of} *)
  ca_cfg : Cfg.t;  (** {!Cfg.build} *)
}
(** What the engine would otherwise read a PU's body for.  The frontend
    computes it as it lowers a PU, or reads it back with the PU's header;
    {!Engine.run} [~carried] uses it for the PU it was carried with. *)

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
(** A lowered PU (before {!Whirl.Layout}) without its body: every other
    field of {!Whirl.Ir.pu}, and what the engine needs of the body. *)

type body_artifact = {
  ba_body : Lang.Sema.body;
      (** the checked file with procedure headers only
          ({!Lang.Sema.header}): what {!Lang.Sema.add_body} links *)
  ba_pus : pu_header list;  (** the file's PUs, in order *)
}

val find_interface : t -> key:Digest.t -> Lang.Sema.interface option
val add_interface : t -> key:Digest.t -> Lang.Sema.interface -> unit
val find_body : t -> key:Digest.t -> body_artifact option
val add_body : t -> key:Digest.t -> body_artifact -> unit

val find_trees :
  t ->
  key:Digest.t ->
  decode:(string -> (Whirl.Wn.t array, string) result) ->
  Whirl.Wn.t array option
(** The WN trees of the body artifact under the same key, in [ba_pus]
    order, through [decode] ({!Whirl.Whirl_io.decode_trees}, which checks
    every tree against its PU's carried digest).  [None] on a miss and on
    every failed read or decode; an [Error] from [decode] quarantines the
    entry like a corrupt payload, with its message in the diagnostic
    ({!drain_diags}). *)

val add_trees : t -> key:Digest.t -> string -> unit
(** Stores a file's tree image ({!Whirl.Whirl_io.encode_trees}) as it
    is: the bytes the PUs' content digests were computed over. *)

val has_trees : t -> key:Digest.t -> bool
(** Whether the store lists a tree entry under [key], without reading it:
    {!Frontend_cache} uses a body artifact only when its trees are there
    too, so a lost or quarantined tree entry is written again. *)
