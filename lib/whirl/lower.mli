(** AST to (high-level) WHIRL lowering.

    Follows the conventions the paper depends on (Section IV-C):

    - array references become [ILOAD(ARRAY)] / [ISTORE(_, ARRAY)] with the
      subscripting kept explicit — this is the "H WHIRL" level where "arrays
      keep their structures" and the ARRAY operator carries the shape;
    - [ARRAY] is emitted row-major and zero-based for both source languages
      (Fortran subscripts are reversed and shifted by their declared lower
      bounds; Dragon's renderer undoes this for display);
    - dimension-size kids of variable extents are [INTCONST 0];
    - whole-array arguments lower to [LDA] parameters (the by-reference
      passing the PASSED access mode summarizes);
    - PARAMETER/#define constants fold to [INTCONST]. *)

val lower : Lang.Sema.program -> Ir.module_
(** @raise Lang.Diag.Frontend_error on references the front end let through
    but the IR cannot express. *)

(** {2 Separate lowering}

    {!lower} is [assemble g prog (List.map (lower_proc g) procs)] with
    [g = globals prog]: one PU's lowering reads only its own procedure and
    the global table, so a caller can lower (or reuse) each unit's PUs on
    its own. *)

type globals
(** The global symbol table and the procedure entry symbols. *)

val globals : Lang.Sema.program -> globals
(** Global arrays (in name order), global scalars (in name order), then
    one entry symbol per procedure in program order. *)

val lower_proc : globals -> Lang.Sema.proc_info -> Ir.pu
(** @raise Lang.Diag.Frontend_error like {!lower}. *)

val assemble : globals -> Lang.Sema.program -> Ir.pu list -> Ir.module_
(** The module over [globals]' table.  [pus] must be in [prog_order].
    The module's program keeps procedure headers only
    ({!Lang.Sema.header}): nothing after lowering reads a procedure's AST
    body or symbols. *)
