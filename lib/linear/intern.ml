let mix acc h = (acc * 0x01000193) lxor (h land max_int)

(* A bijective avalanche of the content hash (splitmix64's finalizer,
   constants cut to 63 bits): every output bit depends on every input bit,
   however little of its range the content hash uses. *)
let spread h =
  let h = (h lxor (h lsr 31)) * 0x2fd611db4739396f in
  let h = (h lxor (h lsr 27)) * 0x2534126ec4cc447b in
  h lxor (h lsr 31)

(* The shard is the top [shard_bits] bits of the spread hash; each shard's
   [Hashtbl] indexes buckets by the low bits, so the two read disjoint bits
   until a shard holds 2^57 buckets (the invariant in intern.mli). *)
let shard_bits = 6
let shards = 1 lsl shard_bits
let shard_of spread_hash = spread_hash lsr (Sys.int_size - shard_bits)

let no_stats =
  {
    Hashtbl.num_bindings = 0;
    num_buckets = 0;
    max_bucket_length = 0;
    bucket_histogram = [||];
  }

let sum_stats (a : Hashtbl.statistics) (b : Hashtbl.statistics) =
  let at h i = if i < Array.length h then h.(i) else 0 in
  {
    Hashtbl.num_bindings = a.num_bindings + b.num_bindings;
    num_buckets = a.num_buckets + b.num_buckets;
    max_bucket_length = max a.max_bucket_length b.max_bucket_length;
    bucket_histogram =
      Array.init
        (max (Array.length a.bucket_histogram)
           (Array.length b.bucket_histogram))
        (fun i -> at a.bucket_histogram i + at b.bucket_histogram i);
  }

module Make (H : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  val with_id : t -> int -> t
  val name : string
end) =
struct
  module Tbl = Hashtbl.Make (struct
    type t = H.t

    let equal = H.equal
    let hash t = spread (H.hash t) land max_int
  end)

  type shard = { mutex : Mutex.t; tbl : H.t Tbl.t }

  let table =
    Array.init shards (fun _ ->
        { mutex = Mutex.create (); tbl = Tbl.create 256 })

  (* ids are unique across shards; 0 is never handed out so that freshly
     built candidates (id -1) can never collide with a canonical id *)
  let next_id = Atomic.make 1
  let c_hits = Obs.Metrics.counter ("linear.intern." ^ H.name ^ ".hits")
  let c_misses = Obs.Metrics.counter ("linear.intern." ^ H.name ^ ".misses")

  let intern node =
    let s = table.(shard_of (spread (H.hash node))) in
    Mutex.lock s.mutex;
    match Tbl.find_opt s.tbl node with
    | Some v ->
      Mutex.unlock s.mutex;
      Obs.Metrics.Counter.incr c_hits;
      v
    | None ->
      let v = H.with_id node (Atomic.fetch_and_add next_id 1) in
      Tbl.add s.tbl v v;
      Mutex.unlock s.mutex;
      Obs.Metrics.Counter.incr c_misses;
      v

  let stats () =
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.mutex;
        let st = Tbl.stats s.tbl in
        Mutex.unlock s.mutex;
        sum_stats acc st)
      no_stats table
end
