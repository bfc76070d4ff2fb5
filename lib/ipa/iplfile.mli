(** Serialized procedure summaries — the paper's IPL/IPA file boundary:
    "IPL (the local interprocedural analysis part) first gathers data flow
    analysis and procedure summary information from each compilation unit
    ... Then, the main IPA module gathers all the IPL summary files"
    (Section IV-A).

    One [.ipl] file holds the summaries of every procedure of one
    compilation unit, as text.  Regions serialize as their constraint
    systems; variables are written symbolically ([d0..dn] for subscript
    dimensions, [s:<proc>:<name>] for symbolic scalars, [s:@:<name>] for
    global scalars) and re-resolved against the loading module through
    {!Collect.sym_var}, so a summary written by one process translates
    identically in another. *)

val write_unit : Whirl.Ir.module_ -> (string * Summary.t) list -> string

val parse_unit :
  Whirl.Ir.module_ -> string -> ((string * Summary.t) list, string) result
(** Re-resolves names against the given module; fails on unknown
    procedures, arrays, or malformed constraints. *)

val save : dir:string -> unit_name:string -> string -> string
(** Writes [<dir>/<unit_name>.ipl]; returns the path. *)
