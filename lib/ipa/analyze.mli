(** The analysis driver: runs IPL collection, propagates summaries bottom-up
    over the call graph, and renders the array-analysis rows — Algorithm 1
    end to end, producing the [.rgn]/[.dgn]/[.cfg] contents.

    Row conventions match the paper's screenshots:

    - per-dimension columns (LB/UB/Stride/Dim_size) are printed in the
      internal row-major order, but bounds are re-based to the source
      language's lower bounds (Fig 14 shows [u(5,65,65,64)] as dim sizes
      [64|65|65|5] with one-based bounds; Fig 9 shows C arrays zero-based);
    - [References] counts direct reference sites of that (scope, array,
      mode);
    - global arrays appear under scope ["@"], with the File column naming
      the object file whose code performs the access;
    - access density is [floor(100 * references / size_bytes)]. *)

type proc_table = {
  t_proc : string;
  t_accesses : Collect.access list;
      (** direct accesses plus call-propagated ones ([ac_via] set) *)
}

type result = {
  r_module : Whirl.Ir.module_;
  r_callgraph : Callgraph.t;
  r_infos : (string * Collect.pu_info) list;
  r_tables : proc_table list;
  r_summaries : (string * Summary.t) list;
  r_rows : Rgnfile.Row.t list;
  r_dgn : Rgnfile.Files.dgn;
  r_cfgs : (string * Cfg.t) list;
}

(** The former [analyze]/[analyze_sources] entry points (the serial
    reference pipeline) are gone: [Engine.run] at [~jobs:1] {e is} the
    serial path, composed from the same building blocks below, and
    [Engine.analyze]/[Engine.analyze_sources] are the drop-in
    conveniences. *)

(** {2 Building blocks}

    The stages the serial path above and the parallel [Engine] share.  They
    are deliberately schedule-free: [summarize_pu] performs one PU's summary
    step given a callee-summary lookup, and [assemble] renders rows/files
    from whatever the caller computed (or loaded from cache). *)

val summarize_pu :
  Whirl.Ir.module_ ->
  pu_of:(string -> Whirl.Ir.pu option) ->
  lookup:(string -> Summary.t option) ->
  Collect.pu_info ->
  Summary.t * Collect.access list
(** One bottom-up step of Algorithm 1: the PU's exported summary (local
    accesses plus translated callee side effects) and the call-propagated
    access records ([ac_via] set).  [pu_of] resolves a callee name to its
    PU (the engine's per-run table, or {!Whirl.Ir.pu_index}); [lookup]
    returns the already-computed summary of a callee, or [None] for a
    call-graph cycle (worst-case summary is then assumed). *)

val assemble :
  Whirl.Ir.module_ ->
  Callgraph.t ->
  infos:(string * Collect.pu_info) list ->
  summaries:(string -> Summary.t option) ->
  propagated:(string -> Collect.access list) ->
  cfgs:(string * Cfg.t) list ->
  result
(** Renders tables, rows, the .dgn skeleton and the final {!result} record
    from per-PU collection results and summaries. *)

type symbol = {
  sy_name : string;
  sy_extents : int option list;  (** {!Collect.extents_of} *)
  sy_lows : int list;  (** source lower bounds, internal row-major order *)
}
(** What the display needs of one symbol as one PU sees it. *)

type display_memo
(** Rendered triplet strings keyed by (source lower bounds, region dims),
    and the current PU's {!symbol}s.  One per pass over the rows; not
    shared between domains. *)

val display_memo : unit -> display_memo

val symbol : display_memo -> Whirl.Ir.module_ -> Whirl.Ir.pu -> int -> symbol
(** The PU's view of symbol [st], derived once per (PU, symbol) while a
    pass stays in one PU. *)

val source_lows : Whirl.Ir.module_ -> Whirl.Ir.pu -> int -> int list
(** The declared lower bounds of array [st] in internal row-major order
    ([[]] for a scalar): the [sy_lows] of {!symbol}, for a pass that sees
    each symbol about once. *)

val display_bounds :
  display_memo -> lows:int list -> Regions.Region.t -> string * string * string
(** [(lb, ub, stride)] column strings for an access to an array with
    source lower bounds [lows], rendered once per distinct key of the
    memo. *)

val summary_of : result -> string -> Summary.t
(** @raise Not_found for unknown procedures. *)

val cfg : (string * Cfg.t) list -> Rgnfile.Files.text
(** The [.cfg] file: one {!Rgnfile.Files.add_cfg_block} record per block,
    procedures in order. *)

val write_outputs : result -> dir:string -> project:string -> string list
(** Streams [<project>.rgn], [<project>.dgn] and [<project>.cfg] through
    {!Rgnfile.Files.save_text} (a file already holding the same bytes is
    left alone); returns their paths. *)
