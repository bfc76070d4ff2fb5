(** The frontend (parse, semantic check, lowering) as separate compilation
    with per-file artifacts in an {!Engine_store}.

    Each file has two cache entries:
    - its {!Lang.Sema.interface}, keyed by a digest of (path, contents);
    - its body — checked procedures, sema warnings and lowered PUs — keyed
      by (file key, {!Lang.Sema.env_digest} of the linked environment).

    An edit that leaves the environment unchanged re-parses, re-checks and
    re-lowers only the edited file; an edit that changes it (a COMMON
    array, a procedure, a return type, a global's declaration line)
    invalidates every body.  The linked module is the one
    [Whirl.Lower.lower (Lang.Frontend.load ~files)] builds, byte for byte
    under {!Whirl.Whirl_io.write}. *)

type result = {
  fr_module : Whirl.Ir.module_;
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
    them).  Without one, no metric moves.
    @raise Lang.Diag.Frontend_error on a parse error (unless [keep_going])
    or a semantic error, with the message the uncached composition
    gives. *)
