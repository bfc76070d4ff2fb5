(** The persistent run ledger: one schema-versioned JSON record per
    pipeline run under [<cache-dir>/ledger/], giving the tool memory
    across invocations — [dragon history] trends any metric over the last
    N runs, [dragon regress] gates CI on deltas, [dragon explain] answers
    "why was this procedure re-analyzed".

    This module owns the mechanics (ids, durable appends, reads) and the
    per-PU entry, which the engine fills, the pipeline writes and
    [dragon explain] reads; the pipeline assembles and checks the rest of
    the record ({!Pipeline.check_ledger_record}) and the dragon viewers
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

(** What the incrementality machinery knew about one PU in a run: the
    record's [pus] entries.  [pu_key1] addresses the local collection
    result (global symtab + PU body), [pu_key2] the interprocedural
    summary (a Merkle digest folding [pu_key1] with every transitive
    callee's key), so comparing two runs' entries tells {e why} a PU was
    re-analyzed: [pu_key1] changed — its own body or the symbol table;
    only [pu_key2] changed — some callee. *)
type pu = {
  pu_name : string;
  pu_file : string;
  pu_key1 : string;  (** hex digest of global symtab + PU body *)
  pu_key2 : string;  (** hex Merkle summary digest ([""] if never keyed) *)
  pu_collect_hit : bool;
  pu_summary_hit : bool;
  pu_callees : string list;  (** direct callees, call-graph order *)
}

val pu_to_json : pu -> Json.t
(** [{"name", "file", "key1", "key2", "collect_hit", "summary_hit",
    "callees"}], in that order. *)

val pu_of_json : Json.t -> (pu, string) result
(** The inverse of {!pu_to_json}: every member present with its type
    ([Error "pu entry without string \"file\""] and the like), so
    [pu_to_json] of the result is the same value. *)

val suffixed_path : run_id:string -> string -> string
(** [suffixed_path ~run_id "out/trace.json"] is ["out/trace-<run_id>.json"]
    — the collision-safe naming [--trace]/[--metrics] use when the ledger
    is active, so concurrent runs sharing a directory keep distinct
    observation files. *)
