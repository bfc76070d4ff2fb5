(** The persistent run ledger: one schema-versioned JSON record per
    pipeline run under [<cache-dir>/ledger/], giving the tool memory
    across invocations — [dragon history] trends any metric over the last
    N runs, [dragon regress] gates CI on deltas, [dragon explain] answers
    "why was this procedure re-analyzed".

    This module owns only the mechanics (ids, durable appends, reads);
    the pipeline assembles the record content and the dragon viewers
    interpret it.  Writes are per-run files via temp + rename, so any
    number of concurrent runs may share one cache directory and readers
    never observe a torn record. *)

val schema_version : int
(** Version stamped into (and required of) every record; currently 1. *)

val dir : cache_dir:string -> string
(** [<cache-dir>/ledger] — where records live. *)

val new_run_id : unit -> string
(** A fresh run id: [<start-ns:016x>-<pid:06d>-<seq:04d>].  Lexicographic
    order is wall-clock start order; distinct across concurrent processes
    (pid) and across runs within one process (seq). *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and any missing parents (mode 0o755).  A
    directory that already exists, or that a concurrent process creates
    first, is not an error. *)

val append : cache_dir:string -> run_id:string -> string -> string
(** [append ~cache_dir ~run_id record] durably writes one JSONL record
    (a newline is added if missing), creating the ledger directory as
    needed, and returns the path written. *)

val read_all : cache_dir:string -> (string * Json.t) list
(** Every parseable record, oldest first, as [(run_id, record)].  Missing
    directory reads as empty; unparsable lines and unreadable files are
    skipped (a concurrent writer may be mid-rename). *)

val suffixed_path : run_id:string -> string -> string
(** [suffixed_path ~run_id "out/trace.json"] is ["out/trace-<run_id>.json"]
    — the collision-safe naming [--trace]/[--metrics] use when the ledger
    is active, so concurrent runs sharing a directory keep distinct
    observation files. *)
