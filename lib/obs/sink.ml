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

let ambient : t option Atomic.t = Atomic.make None
let set_current s = Atomic.set ambient s
let current () = Atomic.get ambient
