(** Splitmix64 — the repo's one seeded PRNG.

    Deterministic by construction: the same seed yields the same sequence
    on every host.  [Corpus.Gen] keys whole corpora on it; [Engine_store]
    keys retry-backoff jitter on it.  No global state. *)

type t
(** A mutable stream position. *)

val make : int -> t
(** [make seed] starts a stream at [seed]. *)

val mix64 : int64 -> int64
(** The stateless splitmix64 finalizer: a strong 64-bit mixer usable as a
    one-shot hash (e.g. to derive decorrelated jitter from a composite
    key) as well as the step function behind {!next}. *)

val next : t -> int64
(** The next raw 64-bit draw. *)

val rand_int : t -> int -> int
(** [rand_int t n] draws uniformly from [0 .. n-1]; [n] must be positive. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)
