(** Hierarchical span tracing over {!Trace}.

    [with_ ~name f] runs [f] inside a begin/end pair on the calling
    domain's track.  With tracing disabled (the default) the call is one
    atomic load and a branch — no allocation, no clock read — so spans can
    stay in hot paths unconditionally.  Nesting is implicit: spans opened
    while another is open on the same domain become its children (the
    recorded [depth] attribute carries the parent link). *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val with_ :
  ?cat:string -> ?attrs:(string * string) list -> name:string ->
  (unit -> 'a) -> 'a
(** [cat] defaults to ["task"]; it groups spans for [dragon profile]
    (["phase"], ["pu"], ["scc"], ["io"], ...).  The span is closed on
    exceptions too. *)
