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
    concurrently; additions are expected from the coordinating domain.

    The on-disk directory is a {e shared tier}: several [uhc] processes
    may hold stores over one [~dir] (one [--cache-dir]).  Publication
    follows single-writer discipline — writes go to a process-private
    temp file promoted by atomic [rename], and a key whose
    file already exists is skipped ([store.publish_skips]) rather than
    rewritten, which is sound because keys are content addresses (same key
    = same bytes).  Readers therefore only ever observe absent or complete
    entries, never torn ones, and corrupt entries heal through the normal
    quarantine-then-recompute path. *)

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
(** With [~dir], entries are persisted under
    [dir/<schema>/{c,s}-<digest>.bin]; the schema component is the build
    fingerprint ({!Build_info.fingerprint}: library sources, OCaml version,
    build settings), because Marshal images are only readable by a build
    with the same type layouts.  Computed at build time, so opening a
    store reads no executable.  The directories are created as needed. *)

val in_memory : unit -> t
(** [create ()] — caching within one process only (e.g. across [--fuse]
    re-analysis). *)

val add_collect : t -> key:Digest.t -> collect_payload -> unit

val find_collect :
  t -> m:Whirl.Ir.module_ -> key:Digest.t -> collect_payload option
(** [None] on a genuine miss and on any unreadable/corrupt entry.

    The store self-heals: on-disk entries carry a checksum header, and an
    entry that fails the checksum or cannot be decoded is quarantined
    (renamed aside, counted in the [store.quarantined] metric, recorded as
    a {!Fault.Diag.t}) so the caller transparently recomputes it.
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

val entry_count : t -> int
(** Number of entries currently held in memory (loaded or added). *)

val drain_diags : t -> Fault.Diag.t list
(** Degradation events (quarantines, retry exhaustions) recorded since the
    last drain, oldest first.  {!Engine.run} drains them into its result. *)

(** {2 Frontend artifacts}

    Per-file results of separate compilation ({!Frontend_cache}), persisted
    under [dir/<schema>/{fi,fb}-<digest>.bin] with the same seal,
    quarantine, retry, publish and fault-injection paths as the analysis
    entries.  They bypass the memory tier: a process reads each at most
    once.  Without [~dir] every add is dropped and every find misses. *)

type body_artifact = {
  ba_body : Lang.Sema.body;
  ba_pus : Whirl.Ir.pu list;  (** lowered, before {!Whirl.Layout} *)
}

val find_interface : t -> key:Digest.t -> Lang.Sema.interface option
val add_interface : t -> key:Digest.t -> Lang.Sema.interface -> unit
val find_body : t -> key:Digest.t -> body_artifact option
val add_body : t -> key:Digest.t -> body_artifact -> unit
