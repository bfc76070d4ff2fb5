(** Content-addressed store for per-PU analysis artifacts.

    Maps engine-computed digests (of serialized WHIRL content, see
    [Engine]) to collection results and interprocedural summaries.  Entries
    live in memory and, when the store was created with [~dir], also on
    disk — so repeated tool invocations over unchanged sources only
    re-analyze what changed.

    Loaded values are re-interned: symbolic variables inside cached regions
    are resolved through the current process's [Ipa.Collect.sym_var]
    registry, so a cache hit yields structures indistinguishable from a
    fresh analysis.  Lookups are safe to issue from several domains
    concurrently; additions and {!publish} are expected from the
    coordinating domain.

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
    handle opened more than {!segment_cap} segments, merges all of them
    into the new one and removes them.  Never raises: a failed write
    leaves the entries in memory only ([store.write_errors]) and no temp
    file behind.  {!Engine.run} and {!Frontend_cache.load} publish before
    they return. *)

val segment_cap : int
(** The number of segments a handle may open before its next {!publish}
    merges them: a directory holds at most [segment_cap + 2] segments
    after any run that publishes twice (frontend and engine). *)

val segment_index : string -> (string * Digest.t * int * int) list option
(** The entries a segment file lists — namespace, key, payload offset and
    payload length, in file order — or [None] if its index is truncated or
    malformed.  For inspecting a cache directory. *)

val add_collect : t -> key:Digest.t -> collect_payload -> unit

val find_collect :
  t -> m:Whirl.Ir.module_ -> key:Digest.t -> collect_payload option
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

val find_summary :
  t -> m:Whirl.Ir.module_ -> key:Digest.t -> summary_payload option

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
    in the same segments (namespaces [fi] and [fb]) with the same MD5
    check, quarantine, retry, publish and fault-injection paths as the
    analysis entries.  Their payloads are never held in memory: a process
    reads each at most once.  Without [~dir] every add is dropped and
    every find misses. *)

type body_artifact = {
  ba_body : Lang.Sema.body;
  ba_pus : Whirl.Ir.pu list;  (** lowered, before {!Whirl.Layout} *)
}

val find_interface : t -> key:Digest.t -> Lang.Sema.interface option
val add_interface : t -> key:Digest.t -> Lang.Sema.interface -> unit
val find_body : t -> key:Digest.t -> body_artifact option
val add_body : t -> key:Digest.t -> body_artifact -> unit
