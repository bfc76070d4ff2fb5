(** The process-wide metrics registry: named counters and log-scale latency
    histograms.

    Instruments are registered once by name and shared from then on —
    [counter name] called twice returns the same counter, so modules can
    obtain their instruments idempotently at initialization.  Registering
    one name as two different instrument kinds raises [Invalid_argument]:
    a name identifies exactly one time series.

    The registry is the one source of every count the tool reports.
    Instruments are cumulative over the process; a run's numbers are the
    {!diff} of two {!snapshot}s taken around it ([--stats], the run
    ledger's [metrics] member, {!Linear.Solver_stats} and the bench
    harness all read such a diff).

    Counters are always live.  Histogram *observation at timed call sites*
    is gated by {!enabled} so that hot paths pay one branch — no clock
    reads — when metrics are off. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val set : t -> int -> unit
end

val counter : string -> Counter.t
val histogram : string -> Hist.t

val set_enabled : bool -> unit
(** Turn timed-histogram recording on ([uhc --metrics]). *)

val enabled : unit -> bool
(** One atomic read; call sites guard their clock reads with this. *)

val names : unit -> string list
(** Registered metric names, sorted. *)

(** A point-in-time reading of one histogram: count/sum, the three standard
    percentiles, and the nonzero [(lo, hi, count)] buckets (ascending;
    [hi = max_int] on the overflow bucket). *)
type hist_snapshot = {
  h_count : int;
  h_sum : int;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_buckets : (int * int * int) list;
}

type snapshot = S_counter of int | S_hist of hist_snapshot

val snapshot : unit -> (string * snapshot) list
(** Every registered instrument with its current value, sorted by name. *)

val diff :
  (string * snapshot) list -> (string * snapshot) list -> (string * snapshot) list
(** [diff later earlier] is what happened between two {!snapshot}s, for
    every instrument of [later] (sorted by name): counters subtract,
    histograms subtract count, sum and each bucket, and their percentiles
    are recomputed from the remaining buckets.  An instrument registered
    after [earlier] was taken keeps its [later] value. *)

val value : (string * snapshot) list -> string -> int
(** A counter's value in a snapshot or diff; [0] when the name is absent
    or names a histogram. *)

val to_json : (string * snapshot) list -> Json.t
(** A snapshot or diff as the list of entries {!dump_json} writes:
    [{"name":..,"kind":"counter","value":..}], or for a histogram
    [{"name":..,"kind":"histogram","count":..,"sum":..,"p50":..,"p95":..,
    "p99":..,"buckets":[{"lo":..,"hi":..,"count":..},...]}] ([hi = -1] on
    the overflow bucket). *)

val dump_json : (string * snapshot) list -> string
(** A snapshot or diff as a JSON document, one entry of {!to_json} per
    line: [{"metrics":[...]}]. *)

val save : path:string -> (string * snapshot) list -> unit
(** Write {!dump_json} to [path] ([uhc --metrics] writes the run's diff). *)

val of_json : Json.t -> ((string * snapshot) list, string) result
(** The inverse of {!to_json}: the one reader of the entry list, in a
    {!dump_json} file and a run-ledger record ([bench check-json]).
    Rejects unsorted or repeated names, an unknown kind, a missing or
    mistyped member, a bucket with [hi < lo], and bucket counts that do
    not sum to the histogram's count.  {!dump_json} of the result is the
    same bytes. *)
