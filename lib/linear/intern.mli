(** Hash-consing support for the linear-algebra terms.

    Each syntactic class ({!Expr}, {!Constr}, {!System}) keeps one global
    intern table mapping a node's content to its unique representative; the
    representative carries a process-unique integer id, so equality of
    interned values is one integer comparison and hashing is O(1).

    Ids are allocation-order dependent (hence scheduling-dependent under
    the parallel engine and unstable across processes): they may back
    equality tests and memo keys, but never anything rendered, persisted,
    or used to order output — canonical orderings stay structural.

    Tables are sharded by content hash to keep lock contention negligible
    under the engine's worker domains, and are never cleared: dropping a
    table while live values still carry its ids would let two structurally
    equal terms intern to different ids.

    Invariant: shard bits are disjoint from bucket-index bits.  Both come
    from one avalanched copy of [H.hash]: the shard from its top 6 bits,
    the bucket (inside the shard's [Hashtbl]) from its low bits.  Were the
    shard drawn from the bits the bucket index reads, every key of a shard
    would share them, 63 of every 64 buckets would stay empty, and each
    lookup would walk a chain 64 times longer. *)

module Make (H : sig
  type t

  val equal : t -> t -> bool
  (** Structural equality of the content, ignoring the id field. *)

  val hash : t -> int
  (** Structural hash of the content, ignoring the id field. *)

  val with_id : t -> int -> t
  (** The same node carrying its freshly assigned id. *)

  val name : string
  (** Metric suffix: hit/miss counters register as
      ["linear.intern.<name>.hits"] / [".misses"]. *)
end) : sig
  val intern : H.t -> H.t
  (** [intern node] returns the canonical representative of [node]'s
      content: the previously interned value if one exists (the candidate
      is dropped), otherwise [node] with a fresh id, now canonical. *)

  val stats : unit -> Hashtbl.statistics
  (** Bucket statistics summed over the shards (bindings, buckets and the
      histogram add up; [max_bucket_length] is the longest chain in any
      shard).  Chain length is what each {!intern} walks with [H.equal]. *)
end

val mix : int -> int -> int
(** Hash combinator: [mix acc h] folds [h] into [acc] (FNV-style). *)
