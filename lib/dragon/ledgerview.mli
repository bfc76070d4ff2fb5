(** Consumers of the persistent run ledger ({!Obs.Ledger}): trend tables
    ([dragon history]), a CI regression gate ([dragon regress]) and
    per-procedure incrementality explanations ([dragon explain]).

    All three render to strings; [bin/dragon] only prints them and maps
    [regress]'s breach flag onto the exit code. *)

type run = { run_id : string; record : Obs.Json.t }
(** One ledger record, identified by its lexicographically time-ordered
    run id. *)

val load : cache_dir:string -> (run list, string) result
(** Every record under [<cache_dir>/ledger/], oldest first.  [Error]
    with a human-readable message when there are none. *)

val metric : Obs.Json.t -> string -> float option
(** [metric record "cache.summary_misses"] resolves a dotted path into
    the record: numbers as-is, numeric strings parsed, booleans as 0/1,
    anything else (or a missing member) is [None]. *)

(** {1 History} *)

val history : ?last:int -> metrics:string list -> run list -> string
(** Rendered trend report over the [last] (default 10) runs: for each
    dotted metric path a sparkline, a run/value/timestamp table and
    min/mean/max. *)

(** {1 Regress} *)

type rule = { r_path : string; r_pct : float }
(** Allow the candidate to exceed the baseline by [r_pct] percent on
    metric [r_path]; [0.] means no increase at all, a negative value
    demands a decrease (so equal values breach — the verify.sh trick for
    injecting a guaranteed failure). *)

val parse_rule : string -> (rule, string) result
(** ["PATH=PCT"], e.g. ["solver.queries=5"] or ["wall_s=20"]. *)

val regress :
  ?baseline:int -> rules:rule list -> run list -> (string * bool, string) result
(** Gate the newest run against the mean of up to [baseline] (default 1)
    preceding runs with the same [config_digest] (falling back to all
    preceding runs, with a note, when none match).  Empty [rules] means
    {!default_rules}.  Returns the rendered report and whether any rule
    breached; [Error] when the ledger has no candidate or no baseline. *)

(** {1 Explain} *)

type pu = {
  pu_name : string;
  pu_file : string;
  pu_key1 : string;
  pu_key2 : string;
  pu_collect_hit : bool;
  pu_summary_hit : bool;
  pu_callees : string list;
}
(** The per-PU ledger section ({!Engine.pu_entry} as recorded). *)

val pus_of : run -> pu list
(** The record's [pus] array; empty if absent or malformed. *)

val explain : target:string -> run list -> (string, string) result
(** Why was [target] (a PU name, recorded file path, or file basename)
    re-analyzed in the newest run?  Compares its content keys against
    the previous run: [key1] changed — its own body or the global symbol
    table; only [key2] changed — a callee, and the changed direct
    callee(s) are named (or flagged as indirect).  Also prints the blast
    radius (transitive callers over the recorded call edges) and the
    run-over-run verdict tally delta.  [Error] when the target matches
    nothing, listing the recorded PU names. *)
