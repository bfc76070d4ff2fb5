(** The frontend (parse, semantic check, lowering) as separate compilation
    with per-file artifacts in an {!Engine_store}.

    Each file has three cache entries:
    - its {!Lang.Sema.interface}, keyed by a digest of (path, contents);
    - its body artifact — procedure headers ({!Lang.Sema.header}), sema
      warnings, and each lowered PU without its WN tree, with what the
      engine would read the tree for ({!Engine_store.carried}: content
      digest, call sites, CFG) — keyed by (file key,
      {!Lang.Sema.env_digest} of the linked environment);
    - under the same key, the file's WN trees, read on demand: the tree
      parts of the PUs' content images ({!Whirl.Whirl_io.encode_trees}),
      so one encoding gives a fresh file's digests and its tree entry.

    A file whose body artifact hits returns PUs with deferred bodies
    ({!Whirl.Ir.deferred}): the first {!Whirl.Ir.body} asked of any of
    them reads, checks and decodes the file's trees, once per load
    ([frontend.body.decoded] counts them), on whatever domain asks.  A
    warm run whose collection hits asks for none.  A tree is used only if
    its bytes hash, behind its PU's header, to the digest the PU carries.
    If the tree entry is missing, its read or decode fails or a tree
    does not match its digest (the store records a diagnostic for a
    failed one, see {!Engine_store.find_trees}), the file is lowered
    again from its source against the load's linked environment
    ([frontend.body.relowered]), and each PU must match its carried
    digest.  A body artifact whose tree entry the store does not list
    ({!Engine_store.has_trees}) is a body miss, so a lost tree entry is
    written again by the next load.

    An edit that leaves the environment unchanged re-parses, re-checks and
    re-lowers only the edited file; an edit that changes it (a COMMON
    array, a procedure, a return type, a global's declaration line)
    invalidates every body.  The linked module is the one
    [Whirl.Lower.lower (Lang.Frontend.load ~files)] builds, byte for byte
    under {!Whirl.Whirl_io.write}. *)

type result = {
  fr_module : Whirl.Ir.module_;
  fr_carried : (Whirl.Ir.pu * Engine_store.carried) list;
      (** every PU of [fr_module], in module order, with its content
          digest, call sites and CFG: computed as the PU was lowered, or
          read back with its header.  {!Engine.run} [~carried] uses them
          instead of reading the body again. *)
  fr_skipped : (string * Lang.Diag.t) list;
      (** under [keep_going], files whose parse failed (never cached), in
          input order, with their diagnostic *)
}

val load :
  ?store:Engine_store.t -> ?keep_going:bool -> (string * string) list -> result
(** [(path, contents)] pairs.  Without a disk-backed [store] nothing is
    cached.  With one, every lookup counts as a hit or a miss in the
    [frontend.artifact.{interface,body}.{hits,misses}] metrics; a registry
    diff around the call gives this load's counts ([uhc --stats] prints
    them).  Without one, no artifact metric moves.  Every digest the load
    computes (not read back) counts in [engine.digest.computed].
    @raise Lang.Diag.Frontend_error on a parse error (unless [keep_going])
    or a semantic error, with the message the uncached composition
    gives. *)
