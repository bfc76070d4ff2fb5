(* Mutex-guarded accumulator: contention is one lock per worker per batch,
   far off any hot path. *)

type t = {
  mutex : Mutex.t;
  mutable alloc : float;
  mutable busy : int;
}

let create () = { mutex = Mutex.create (); alloc = 0.0; busy = 0 }

let add t ~alloc_bytes ~busy_ns =
  Mutex.lock t.mutex;
  t.alloc <- t.alloc +. alloc_bytes;
  t.busy <- t.busy + busy_ns;
  Mutex.unlock t.mutex

let with_lock t f =
  Mutex.lock t.mutex;
  let r = f () in
  Mutex.unlock t.mutex;
  r

let alloc_bytes t = with_lock t (fun () -> t.alloc)
let busy_ns t = with_lock t (fun () -> t.busy)

(* [Gc.allocated_bytes] reads its minor-heap part from [Gc.counters],
   which on OCaml 5.1 counts the words in the domain's current minor heap
   at one eighth: a window's delta is off by 7/8 of the change in
   minor-heap occupancy across it (up to ~1.8 MB either way with the
   default 256k-word heap), and a worker's short batch window reads about
   an eighth of what it allocated.  [Gc.minor_words] is exact and
   domain-local, so it supplies the minor part here. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)
