(** Deterministic virtual-address assignment.

    The paper's Mem_Loc column shows the address of each array "in
    hexadecimal. It helps the user to find arrays pointing to the same
    memory location."  A real compiler reads these from the linker/stack
    layout; we simulate with a reproducible layout pass: global symbols are
    placed sequentially from {!global_page}, each procedure's formals and
    locals from a per-procedure page.  Addresses are 16-byte aligned, and a
    global array keeps one address program-wide. *)

val assign : Ir.module_ -> unit
(** Fills [st_mem_loc] of every symbol in every table. *)
