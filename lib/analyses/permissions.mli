(** Permission inference client (Dohrau et al. style): per-procedure
    read/write permission preconditions on formal and global arrays, read
    directly off the interprocedural summaries.  Registered as
    ["permissions"]. *)

val name : string

val run : Analysis.ctx -> Report.t * Fault.Diag.t list
(** Columns: Proc, Array, Kind (formal|global), Permission, LB, UB, Stride,
    Exact, Count.  A row [p, a, formal, write, lb, ub, s, ...] reads as the
    precondition "callers of [p] must hold write permission on
    [a\[lb:ub:s\]]". *)
