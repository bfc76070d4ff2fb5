(** Wire protocol between the shard coordinator and its worker processes
    (see {!Engine_shard}).

    Hand-framed binary over pipes — one tag byte, an 8-byte big-endian
    payload length, then the payload.  Modules, collect inputs and
    summaries are not given a second serialization: they cross the wire
    as the images the cache layer already defines ([Whirl_io.write] text
    for modules, [Engine_store.encode_collect]/[encode_summary] entry
    images for payloads).  Entry images are Marshal blobs, so they are
    only exchanged after the {!Hello} handshake has matched the two
    processes' {!Engine_store.schema} fingerprints. *)

type member = {
  mb_name : string;
  mb_poisoned : bool;
      (** collection already degraded this PU: the worker installs the
          opaque summary at this member's position instead of analyzing,
          preserving the serial path's member-by-member visibility *)
  mb_collect : string;
      (** [Engine_store.encode_collect] image; [""] when poisoned *)
  mb_key : string;
      (** the member's Merkle summary key ([Digest.t] bytes), letting the
          worker publish its computed summary straight into the shared
          tier; [""] when unknown *)
}

type task = {
  t_id : int;
  t_members : member list;
      (** the SCC's not-yet-summarized PUs, in call-graph order *)
  t_callees : (string * string) list;
      (** name -> [Engine_store.encode_summary] image for every already
          known summary the members may look up (lower levels and
          cache-hit co-members) *)
}

type outcome =
  | O_summary of string  (** computed; an [encode_summary] image *)
  | O_opaque  (** pre-poisoned member: opaque summary installed *)
  | O_poisoned of string * string * string
      (** (stage, diag site, error) — isolated under keep-going *)
  | O_failed of string * (string * string) option
      (** (error, injected (site, key)) — fatal without keep-going *)

type result = {
  r_id : int;
  r_busy_ns : int;  (** monotonic wall spent on the task worker-side *)
  r_degraded : int;  (** [solver.degraded] counter delta over the task *)
  r_solver : string;  (** Marshal image of the [Linear.Solver_stats.t] delta *)
  r_outcomes : (string * outcome) list;
}

type init = {
  in_module : string;  (** [Whirl_io.write] image of the module *)
  in_keep_going : bool;
  in_fault_specs : string list;  (** [Fault.spec_to_string] forms *)
  in_solver_budget : int option;
  in_cache_dir : string option;  (** shared tier to publish into *)
}

type msg =
  | Hello of int * string  (** worker's (pid, schema fingerprint) *)
  | Init of init
  | Task of task
  | Result of result
  | Shutdown

val write_magic : Unix.file_descr -> unit
(** Written by the worker before its {!Hello}: a fixed sync marker, so
    the coordinator can discard anything a linked library printed to the
    worker's stdout at module-initialization time. *)

val read_magic : Unix.file_descr -> bool
(** Discard stream bytes until the sync marker has been read in full;
    [false] on end-of-stream or if no marker appears within 64 KiB (the
    spawned process is then not a protocol speaker at all). *)

val write_msg : Unix.file_descr -> msg -> unit
(** Frame and write the whole message (short writes retried). *)

val read_msg : Unix.file_descr -> msg option
(** Blocking read of one message; [None] on end-of-stream at a message
    boundary.  @raise Failure on a truncated or malformed stream, including
    a payload with bytes left over after its tag's layout (coordinator and
    worker disagree on the wire format). *)
