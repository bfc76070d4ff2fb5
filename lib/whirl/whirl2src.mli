(** WHIRL-to-source translation (the whirl2f / whirl2c analog).

    High-level WHIRL keeps enough structure to print a faithful source form;
    subscripts are converted back from the internal row-major zero-based
    convention to the PU's source language (Fortran: reversed, shifted to
    declared lower bounds; C: as stored).  As the paper notes for WHIRL2c,
    the round trip "could incur minor loss of semantics" — e.g. PARAMETER
    constants reappear as literals. *)

val pu_to_string : Ir.module_ -> Ir.pu -> string
val module_to_string : Ir.module_ -> string
