val fingerprint : string
(** Hex digest of every [lib/] source file, the OCaml version and the
    build settings (profile, architecture, word size, flambda), computed
    at build time.  Two binaries with equal fingerprints agree on the
    Marshal layout of every library type. *)
