(** Per-domain attribution sinks.

    A sink collects allocation and busy-time contributions from worker
    domains during one engine phase: the coordinator passes it with each
    pool batch of the phase, workers report their deltas at batch drain,
    and the coordinator reads the merged totals after the pool barrier.
    This is what makes worker-domain allocation attributable in
    [Engine.Stats] — the coordinating domain's own [Gc.allocated_bytes]
    delta only ever saw its own heap.

    Always on: two [Gc.allocated_bytes] calls per worker per batch —
    nothing here needs the tracing or metrics switches. *)

type t

val create : unit -> t

val add : t -> alloc_bytes:float -> busy_ns:int -> unit
(** Merge one domain's contribution (thread-safe). *)

val alloc_bytes : t -> float
val busy_ns : t -> int

val allocated_bytes : unit -> float
(** Bytes allocated by the calling domain so far: what
    [Gc.allocated_bytes] should report, which on OCaml 5.1 is off by up
    to 7/8 of a minor heap.  Every allocation measurement (engine phases,
    pool workers, bench) goes through it. *)
