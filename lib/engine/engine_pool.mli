(** A persistent work-queue domain pool for the per-PU stages of the
    engine.

    Worker domains are spawned once (on first parallel use) and parked
    between batches, so issuing a batch costs a broadcast, not a
    [Domain.spawn] — the engine issues several batches per run.

    [run ~jobs tasks] executes every task exactly once, with at most [jobs]
    domains (the calling one included) working on the batch, and returns
    after all of them finished; the completion handshake is a full barrier,
    so plain writes made by tasks are safely visible to the caller.  With
    [jobs <= 1] — or a single task — everything runs on the calling domain,
    which is the serial reference path.  The first task exception is
    re-raised in the caller after the batch drains.

    A batch carries the submitting domain's {!Fault.current} plan, and
    every worker drains it under that plan, so a run's fault specs and
    solver budget reach its tasks on any domain and no other run's.  Worker
    domains report their [Gc.allocated_bytes] delta and busy time for each
    batch they participate in to [sink] — the engine merges those into its
    per-phase statistics after the barrier. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val resolve_jobs : int -> int
(** Maps the CLI convention [0 = auto] to {!recommended}. *)

val run : sink:Obs.Sink.t -> jobs:int -> (unit -> unit) array -> unit
