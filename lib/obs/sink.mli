(** Per-domain attribution sinks.

    A sink collects allocation and busy-time contributions from worker
    domains during one engine phase; the coordinator installs it as the
    ambient sink ({!set_current}), workers report their deltas at batch
    drain, and the coordinator reads the merged totals after the pool
    barrier.  This is what makes worker-domain allocation attributable in
    [Engine.Stats] — the coordinating domain's own [Gc.allocated_bytes]
    delta only ever saw its own heap.

    Always on: one atomic load per batch participation, two
    [Gc.allocated_bytes] calls per worker per batch — nothing here needs
    the tracing or metrics switches. *)

type t

val create : unit -> t

val add : t -> alloc_bytes:float -> busy_ns:int -> unit
(** Merge one domain's contribution (thread-safe). *)

val alloc_bytes : t -> float
val busy_ns : t -> int

val set_current : t option -> unit
(** Install/remove the ambient sink (coordinator only). *)

val current : unit -> t option
