(** Deterministic, seed-driven fault injection.

    The pipeline calls {!inject} at tagged points; whether a point fires is
    a pure function of (seed, site, key) — the MD5 of the three mapped to a
    uniform draw in [0,1) and compared against the configured rate.  No
    counters or clocks are involved, so a given spec fires at exactly the
    same points on every run and at any [--jobs] setting; tests rely on
    this to assert byte-identity of the non-faulted remainder.

    A run's fault specs are its plan, bound with {!with_plan} on the domain
    that runs it; the engine's pool hands it to every worker that joins one
    of the run's batches.  Two runs in one process therefore never see
    each other's settings.  Off by default: with no plan bound (the empty
    list), {!inject} is one domain-local read.  Intended for tests and
    benchmarks only — production tolerance paths (cache self-healing,
    per-PU isolation) are exercised by injecting here. *)

type site =
  | Io_read  (** store file reads ("store.read") *)
  | Io_write  (** store file writes ("store.write") *)
  | Marshal  (** store entry decode ("store.marshal") *)
  | Pool  (** per-PU engine work on the domain pool ("pool") *)

val all_sites : site list
val site_name : site -> string

type spec = {
  sp_site : site;
  sp_rate : float;  (** firing probability in [0,1] *)
  sp_seed : int;
  sp_only : string option;
      (** when set, only keys containing this substring are eligible —
          lets a test poison one named PU ("pool:1.0:0:main") *)
}

exception Injected of site * string
(** Raised by {!inject} when the point fires; the string is the key. *)

val parse_specs : string list -> (spec list, string) result
(** Each entry is [SITE:RATE:SEED[:ONLY]]; [SITE] is a {!site_name} or
    ["all"] (which expands to one spec per site).  All-or-nothing: the
    concatenated expansion, or the first entry's error. *)

val with_plan : spec list -> (unit -> 'a) -> 'a
(** [with_plan specs f] runs [f] with [specs] bound on the calling domain,
    and restores the previous binding on exit, exceptions included.  Other
    domains are unaffected. *)

val current : unit -> spec list
(** The calling domain's plan: [[]] outside {!with_plan}. *)

val inject : site -> key:string -> unit
(** @raise Injected when a spec of {!current} fires on (site, key); counts
    the [fault.injected.<site>] metric first.  No-op under an empty
    plan. *)

(** Structured degradation diagnostics — what faulted, how bad, and what
    the pipeline did instead of aborting.  [uhc --diagnostics FILE] writes
    these as JSON ([{"diagnostics": [...]}], read back by {!Diag.parse}). *)
module Diag : sig
  type severity = Error | Warning

  type t = {
    d_site : string;  (** injection-site or subsystem name *)
    d_severity : severity;
    d_pu : string;  (** PU name, source file, or ["*"] *)
    d_action : string;  (** recovery action taken *)
    d_detail : string;
  }

  val make :
    ?severity:severity ->
    site:string ->
    pu:string ->
    action:string ->
    string ->
    t
  (** [severity] defaults to [Warning] — the run survived. *)

  val compare : t -> t -> int
  (** Total order on content; {!save} sorts with it so the JSON report is
      byte-stable across domain-pool schedules. *)

  val pp : Format.formatter -> t -> unit

  val schema_version : int
  (** Version stamped into {!dump_json}'s top-level object; {!parse}
      rejects unknown or missing versions. *)

  val dump_json : t list -> string
  val save : path:string -> t list -> unit

  val parse : string -> (t list, string) result
  (** The diagnostics of a {!dump_json} file, in file order: the one
      reader of the format ([bench check-json]).  Rejects a missing or
      unknown [schema_version], a member that is not a string, an empty
      site, pu or action, and a severity other than ["error"] or
      ["warning"].  {!dump_json} of the result is the same bytes. *)
end
