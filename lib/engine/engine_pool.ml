(* A persistent domain pool draining indexed work batches.

   Spawning a domain costs milliseconds (its minor heap alone), which would
   dwarf the per-PU work the engine fans out — one analysis run issues a
   batch per phase plus one per call-graph level.  So workers are spawned
   once, on first use, and parked on a condition variable between batches;
   submitting a batch is just a broadcast.

   Tasks are claimed with an atomic counter, so the assignment of tasks to
   domains is scheduling-dependent — which is why every task writes its
   result into its own pre-assigned slot and the stages the engine runs
   here are free of order-dependent side effects.  Completion is signalled
   through a mutex-guarded counter, giving the caller a happens-before edge
   over all plain writes the tasks made.

   A batch carries what its tasks would have read from the submitting
   domain: the run's fault plan (domain-local, so a worker binds it for
   the drain) and the phase's attribution sink. *)

let recommended () = Domain.recommended_domain_count ()

let resolve_jobs jobs = if jobs <= 0 then recommended () else jobs

type batch = {
  tasks : (unit -> unit) array;
  next : int Atomic.t;  (* next unclaimed task index *)
  finished : int Atomic.t;  (* completed tasks *)
  slots : int Atomic.t;  (* worker-participation permits left *)
  active : int Atomic.t;  (* workers drained but not yet published *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  plan : Fault.spec list;  (* the submitting domain's fault plan *)
  sink : Obs.Sink.t;  (* where workers report their measurement *)
}

type pool = {
  mutex : Mutex.t;
  wake : Condition.t;  (* workers: a new batch (epoch bump) or shutdown *)
  done_ : Condition.t;  (* caller: batch completed *)
  mutable epoch : int;
  mutable current : batch option;
  mutable stop : bool;
  mutable spawned : int;
  mutable domains : unit Domain.t list;
}

let drain pool (b : batch) =
  let n = Array.length b.tasks in
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < n then begin
      (if Atomic.get b.failure = None then
         try b.tasks.(i) ()
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set b.failure None (Some (e, bt))));
      if Atomic.fetch_and_add b.finished 1 + 1 = n then begin
        Mutex.lock pool.mutex;
        Condition.broadcast pool.done_;
        Mutex.unlock pool.mutex
      end;
      claim ()
    end
  in
  claim ()

(* A worker's participation in one batch, under the batch's fault plan and
   bracketed with allocation and busy-time measurement reported to the
   batch's sink, the one the engine passed for the current phase.  This
   is what lets [Engine.Stats] attribute worker-domain allocation: the
   coordinator's own allocation delta ({!Obs.Sink.allocated_bytes}) only
   sees its own heap.

   The [active] counter exists because finishing the batch's last task and
   publishing this measurement are separate steps: the caller must not treat
   the batch as complete until every participating worker has pushed its
   delta into the sink, or the phase reads the sink while the slowest
   worker — precisely the one holding most of the allocation — is still
   between its final [finished] increment and its [Sink.add]. *)
let drain_measured pool b =
  Fault.with_plan b.plan @@ fun () ->
  let t0 = Obs.Trace.now_ns () in
  let a0 = Obs.Sink.allocated_bytes () in
  drain pool b;
  Obs.Sink.add b.sink
    ~alloc_bytes:(Obs.Sink.allocated_bytes () -. a0)
    ~busy_ns:(Obs.Trace.now_ns () - t0)

let worker pool () =
  let rec wait_for_work last_epoch =
    Mutex.lock pool.mutex;
    while pool.epoch = last_epoch && not pool.stop do
      Condition.wait pool.wake pool.mutex
    done;
    let epoch = pool.epoch and batch = pool.current and stop = pool.stop in
    Mutex.unlock pool.mutex;
    if not stop then begin
      (match batch with
      | Some b when Atomic.fetch_and_add b.slots (-1) > 0 ->
        Atomic.incr b.active;
        Fun.protect
          ~finally:(fun () ->
            Mutex.lock pool.mutex;
            Atomic.decr b.active;
            Condition.broadcast pool.done_;
            Mutex.unlock pool.mutex)
          (fun () -> drain_measured pool b)
      | _ -> ());
      wait_for_work epoch
    end
  in
  wait_for_work 0

(* Created eagerly: concurrent runs on several domains may submit their
   first batch at the same moment, and forcing one [lazy] from two domains
   at once raises. *)
let pool =
  let p =
    {
      mutex = Mutex.create ();
      wake = Condition.create ();
      done_ = Condition.create ();
      epoch = 0;
      current = None;
      stop = false;
      spawned = 0;
      domains = [];
    }
  in
  at_exit (fun () ->
      Mutex.lock p.mutex;
      p.stop <- true;
      Condition.broadcast p.wake;
      Mutex.unlock p.mutex;
      List.iter Domain.join p.domains;
      p.domains <- []);
  p

let ensure_workers p count =
  if p.spawned < count then begin
    Mutex.lock p.mutex;
    while p.spawned < count do
      p.domains <- Domain.spawn (worker p) :: p.domains;
      p.spawned <- p.spawned + 1
    done;
    Mutex.unlock p.mutex
  end

let run ~sink ~jobs (tasks : (unit -> unit) array) =
  let n = Array.length tasks in
  let jobs = max 1 (min (resolve_jobs jobs) n) in
  if jobs <= 1 then Array.iter (fun t -> t ()) tasks
  else begin
    let p = pool in
    ensure_workers p (jobs - 1);
    let b =
      {
        tasks;
        next = Atomic.make 0;
        finished = Atomic.make 0;
        slots = Atomic.make (jobs - 1);
        active = Atomic.make 0;
        failure = Atomic.make None;
        plan = Fault.current ();
        sink;
      }
    in
    Mutex.lock p.mutex;
    p.current <- Some b;
    p.epoch <- p.epoch + 1;
    Condition.broadcast p.wake;
    Mutex.unlock p.mutex;
    drain p b;
    Mutex.lock p.mutex;
    (* completion = every task done AND every joined worker has published
       its measurement to the batch's sink (see [drain_measured]) *)
    while Atomic.get b.finished < n || Atomic.get b.active > 0 do
      Condition.wait p.done_ p.mutex
    done;
    (match p.current with
    | Some b' when b' == b -> p.current <- None
    | _ -> ());
    Mutex.unlock p.mutex;
    match Atomic.get b.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end
