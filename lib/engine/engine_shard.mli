(** Multi-process sharded execution of the summarize phase.

    The coordinator spawns worker processes of its own executable and
    shards each SCC-condensation level's not-yet-summarized SCCs across
    them over the {!Engine_proto} pipe protocol, with a work-stealing
    scheduler (home queue = task id mod workers; an idle worker steals
    from the tail of the longest queue).  Workers publish computed
    summaries straight into the shared [--cache-dir] tier.

    Outputs stay byte-identical at every topology: slot writes are
    per-PU, levels are barriers, and every degraded mode — schema
    mismatch at handshake, a worker dying mid-task, no worker surviving —
    falls back to running the affected SCCs in-process.  Steal counts,
    per-worker busy wall and queue depth are telemetry only
    ([shard.spawned]/[shard.tasks]/[shard.steals]/[shard.fallback_local]
    counters, [shard.queue_depth] gauge, {!stats}). *)

val worker_check_argv : unit -> unit
(** Call first thing in [main] of every binary that may coordinate a
    sharded run: when [Sys.argv.(1)] is the worker tag, this process
    {e is} a shard worker — serve the protocol on stdin/stdout and
    [exit] without returning.  A no-op otherwise. *)

type t
(** A coordinator handle, one per {!Engine.run}. *)

val create : workers:int -> init:(unit -> Engine_proto.init) -> t
(** [init] is forced once, at first spawn: it snapshots the module image
    and the knob state the workers must mirror.  No process is spawned
    until {!run_level} first has work. *)

type worker_stat = { ws_tasks : int; ws_steals : int; ws_busy_ns : int }

type stats = {
  st_requested : int;  (** the [--workers] value *)
  st_spawned : int;  (** processes that actually started *)
  st_tasks : int;  (** tasks dispatched over the wire *)
  st_steals : int;  (** tasks executed away from their home queue *)
  st_fallback_local : int;  (** tasks run in-process (death/spawn failure) *)
  st_workers : worker_stat list;  (** per worker, in id order *)
}

type task_spec = {
  ts_task : Engine_proto.task;
      (** wire form of one SCC; [t_id] is overwritten with the task's
          index in the level array *)
  ts_local : unit -> unit;  (** in-process fallback: run the SCC here *)
  ts_on_outcomes : (string * Engine_proto.outcome) list -> unit;
      (** applied on the coordinator for every completed wire task, in
          the member order the worker processed *)
}

val stats : t -> stats
val run_level : t -> task_spec array -> unit
(** Execute one condensation level to completion (a barrier).  Workers
    are spawned lazily at the first non-empty level — a fully warm run
    never pays a fork.  May re-raise an exception reconstructed from a
    worker's [O_failed] outcome (via [ts_on_outcomes]). *)

val shutdown : t -> unit
(** Retire every worker (close pipes, reap).  Idempotent; safe to call
    from a [Fun.protect] finalizer. *)
