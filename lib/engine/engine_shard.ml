(* Multi-process sharded execution of the summarize phase.

   The coordinator (the ordinary [Engine.run] process) spawns N fresh
   worker processes of its own executable ([Sys.executable_name], argv
   tagged [__shard-worker]) and, within each SCC-condensation level,
   shards the not-yet-summarized SCCs across them over the
   {!Engine_proto} pipe protocol.  Workers re-parse the module from its
   [Whirl_io] image, mirror the coordinator's solver/fault knobs from the
   Init message, analyze shipped SCCs member-by-member exactly as the
   in-process path does, and send summaries back as the same entry images
   the cache persists — publishing them into the shared [--cache-dir]
   tier on the way, so a summary computed by any worker is visible to
   every later run without re-derivation.

   Scheduling is work-stealing: each task's home queue is [id mod N]
   (deterministic), each worker holds at most one task in flight, and a
   worker whose own queue drains steals from the tail of the longest
   remaining queue.  Steal decisions depend on timing and are recorded
   only in telemetry (steal counts, per-worker busy wall, queue-depth
   gauge) — never in analysis outputs, which stay byte-identical at every
   topology because slot writes are per-PU and levels are barriers.

   Degraded modes all fall back to in-process analysis with identical
   results: a worker whose Hello handshake does not match the
   coordinator's store schema (a different binary — Marshal images would
   be unsafe) is discarded; a worker that dies mid-task has its task
   re-run locally; with every worker gone the level drains locally. *)

open Whirl

let worker_tag = "__shard-worker"

(* re-registrations resolve to the instruments other modules own *)
let c_degraded = Obs.Metrics.counter "solver.degraded"
let c_spawned = Obs.Metrics.counter "shard.spawned"
let c_tasks = Obs.Metrics.counter "shard.tasks"
let c_steals = Obs.Metrics.counter "shard.steals"
let c_fallback = Obs.Metrics.counter "shard.fallback_local"
let g_queue_depth = Obs.Metrics.gauge "shard.queue_depth"

(* ------------------------------------------------------------------ *)
(* Worker side *)

(* Mirrors [Engine]'s per-member summarize semantics exactly: members
   arrive in call-graph order; a pre-poisoned member installs the opaque
   summary at its position (so an earlier member of the cycle already saw
   [None] for it, like the serial schedule); a member that fails under
   keep-going poisons locally and processing continues; without
   keep-going the first failure stops the task and the coordinator
   re-raises. *)
let run_task ~m ~pu_of ~keep_going ~store (tk : Engine_proto.task) :
    Engine_proto.result =
  let t0 = Obs.Trace.now_ns () in
  let solver0 = Linear.Solver_stats.snapshot () in
  let deg0 = Obs.Metrics.Counter.get c_degraded in
  let callees = Hashtbl.create 16 in
  List.iter
    (fun (name, img) ->
      Hashtbl.replace callees name
        (lazy (Engine_store.decode_summary ~m img).Engine_store.sp_summary))
    tk.Engine_proto.t_callees;
  let member_names = Hashtbl.create 8 in
  List.iter
    (fun mb -> Hashtbl.replace member_names mb.Engine_proto.mb_name ())
    tk.Engine_proto.t_members;
  let local : (string, Ipa.Summary.t) Hashtbl.t = Hashtbl.create 8 in
  let lookup name =
    match Hashtbl.find_opt local name with
    | Some s -> Some s
    | None ->
      (* a co-member not yet summarized reads as [None], never as a stale
         shipped value *)
      if Hashtbl.mem member_names name then None
      else Option.map Lazy.force (Hashtbl.find_opt callees name)
  in
  let outcomes = ref [] in
  let fatal = ref false in
  List.iter
    (fun (mb : Engine_proto.member) ->
      if not !fatal then begin
        let name = mb.Engine_proto.mb_name in
        let pu = pu_of name in
        if mb.Engine_proto.mb_poisoned then begin
          Hashtbl.replace local name (Ipa.Summary.opaque m pu);
          outcomes := (name, Engine_proto.O_opaque) :: !outcomes
        end
        else begin
          let p = Engine_store.decode_collect ~m mb.Engine_proto.mb_collect in
          let info =
            {
              Ipa.Collect.p_pu = pu;
              p_accesses = p.Engine_store.cp_accesses;
              p_sites = p.Engine_store.cp_sites;
            }
          in
          match
            Fault.inject Fault.Pool ~key:("summarize:" ^ name);
            Obs.Span.with_ ~cat:"pu" ~name:("summarize:" ^ name) (fun () ->
                Ipa.Analyze.summarize_pu m ~lookup info)
          with
          | exported, extra ->
            Hashtbl.replace local name exported;
            let img =
              Engine_store.encode_summary
                { Engine_store.sp_summary = exported; sp_propagated = extra }
            in
            (match store with
            | Some st when mb.Engine_proto.mb_key <> "" ->
              Engine_store.publish_summary st ~key:mb.Engine_proto.mb_key img
            | _ -> ());
            outcomes := (name, Engine_proto.O_summary img) :: !outcomes
          | exception e when keep_going ->
            Hashtbl.replace local name (Ipa.Summary.opaque m pu);
            let site =
              match e with
              | Fault.Injected (s, _) -> Fault.site_name s
              | _ -> "engine"
            in
            outcomes :=
              (name,
                Engine_proto.O_poisoned
                  ("summarize", site, Printexc.to_string e))
              :: !outcomes
          | exception e ->
            let injected =
              match e with
              | Fault.Injected (s, k) -> Some (Fault.site_name s, k)
              | _ -> None
            in
            fatal := true;
            outcomes :=
              (name, Engine_proto.O_failed (Printexc.to_string e, injected))
              :: !outcomes
        end
      end)
    tk.Engine_proto.t_members;
  let solver_diff =
    Linear.Solver_stats.diff (Linear.Solver_stats.snapshot ()) solver0
  in
  {
    Engine_proto.r_id = tk.Engine_proto.t_id;
    r_busy_ns = Obs.Trace.now_ns () - t0;
    r_degraded = Obs.Metrics.Counter.get c_degraded - deg0;
    r_solver = Marshal.to_string solver_diff [];
    r_outcomes = List.rev !outcomes;
  }

let worker_serve input output =
  Engine_proto.write_magic output;
  Engine_proto.write_msg output
    (Engine_proto.Hello (Unix.getpid (), Engine_store.schema ()));
  match Engine_proto.read_msg input with
  | None | Some Engine_proto.Shutdown -> ()
  | Some (Engine_proto.Init init) ->
    let m =
      match Whirl_io.parse init.Engine_proto.in_module with
      | Ok m -> m
      | Error e -> failwith ("shard worker: bad module image: " ^ e)
    in
    Layout.assign m;
    Ipa.Collect.intern_module_syms m;
    (match Fault.parse_specs init.Engine_proto.in_fault_specs with
    | Ok specs -> Fault.configure specs
    | Error e -> failwith ("shard worker: bad fault spec: " ^ e));
    Linear.System.set_step_budget init.Engine_proto.in_solver_budget;
    let store =
      Option.map
        (fun dir -> Engine_store.create ~dir ())
        init.Engine_proto.in_cache_dir
    in
    let pu_tbl = Hashtbl.create 64 in
    List.iter (fun pu -> Hashtbl.replace pu_tbl pu.Ir.pu_name pu) m.Ir.m_pus;
    let pu_of name =
      match Hashtbl.find_opt pu_tbl name with
      | Some pu -> pu
      | None -> failwith ("shard worker: unknown PU " ^ name)
    in
    let rec serve () =
      match Engine_proto.read_msg input with
      | None | Some Engine_proto.Shutdown -> ()
      | Some (Engine_proto.Task tk) ->
        let r =
          run_task ~m ~pu_of ~keep_going:init.Engine_proto.in_keep_going
            ~store tk
        in
        Engine_proto.write_msg output (Engine_proto.Result r);
        serve ()
      | Some _ -> failwith "shard worker: unexpected message"
    in
    serve ()
  | Some _ -> failwith "shard worker: expected Init"

let worker_check_argv () =
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = worker_tag then begin
    let status =
      try
        let input = Unix.stdin in
        (* keep a private handle on the real stdout and point fd 1 at
           stderr, so any stray print in analysis code cannot corrupt the
           protocol stream *)
        let output = Unix.dup Unix.stdout in
        Unix.dup2 Unix.stderr Unix.stdout;
        worker_serve input output;
        0
      with e ->
        prerr_endline ("shard worker: " ^ Printexc.to_string e);
        2
    in
    exit status
  end

(* ------------------------------------------------------------------ *)
(* Coordinator side *)

type worker = {
  w_id : int;
  w_pid : int;
  w_to : Unix.file_descr;  (* coordinator -> worker (its stdin) *)
  w_from : Unix.file_descr;  (* worker -> coordinator (its stdout) *)
  mutable w_alive : bool;
  mutable w_busy_ns : int;
  mutable w_tasks : int;
  mutable w_steals : int;
}

type t = {
  sh_requested : int;
  sh_init : Engine_proto.init Lazy.t;
  mutable sh_workers : worker array;
  mutable sh_spawned : bool;
  mutable sh_steals : int;
  mutable sh_fallback : int;
  mutable sh_dispatched : int;
}

type worker_stat = { ws_tasks : int; ws_steals : int; ws_busy_ns : int }

type stats = {
  st_requested : int;
  st_spawned : int;
  st_tasks : int;
  st_steals : int;
  st_fallback_local : int;
  st_workers : worker_stat list;
}

let create ~workers ~init =
  {
    sh_requested = workers;
    sh_init = Lazy.from_fun init;
    sh_workers = [||];
    sh_spawned = false;
    sh_steals = 0;
    sh_fallback = 0;
    sh_dispatched = 0;
  }

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reap_quiet pid =
  if pid > 0 then try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let mark_dead w =
  if w.w_alive then begin
    w.w_alive <- false;
    close_quiet w.w_to;
    close_quiet w.w_from;
    (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap_quiet w.w_pid
  end

let retire w =
  (* graceful: closing its stdin makes an idle worker exit by itself *)
  if w.w_alive then begin
    w.w_alive <- false;
    (try Engine_proto.write_msg w.w_to Engine_proto.Shutdown
     with Unix.Unix_error _ | Sys_error _ -> ());
    close_quiet w.w_to;
    close_quiet w.w_from;
    reap_quiet w.w_pid
  end

let spawn_one sh id =
  let task_r, task_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  match
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; worker_tag |]
      task_r res_w Unix.stderr
  with
  | exception e ->
    List.iter close_quiet [ task_r; task_w; res_r; res_w ];
    Obs.Log.info "shard.spawn_failed"
      [ ("worker", string_of_int id); ("error", Printexc.to_string e) ];
    {
      w_id = id;
      w_pid = -1;
      w_to = task_w;
      w_from = res_r;
      w_alive = false;
      w_busy_ns = 0;
      w_tasks = 0;
      w_steals = 0;
    }
  | pid -> (
    Unix.close task_r;
    Unix.close res_w;
    let w =
      {
        w_id = id;
        w_pid = pid;
        w_to = task_w;
        w_from = res_r;
        w_alive = true;
        w_busy_ns = 0;
        w_tasks = 0;
        w_steals = 0;
      }
    in
    (* handshake before any Marshal image crosses the wire: a worker from
       a different binary is useless (and unsafe) — discard it and let the
       fallback path keep outputs identical *)
    match
      if Engine_proto.read_magic res_r then Engine_proto.read_msg res_r
      else None
    with
    | Some (Engine_proto.Hello (_, schema))
      when schema = Engine_store.schema () -> (
      match Engine_proto.write_msg task_w (Engine_proto.Init (Lazy.force sh.sh_init)) with
      | () ->
        Obs.Metrics.Counter.incr c_spawned;
        w
      | exception (Unix.Unix_error _ | Sys_error _) ->
        mark_dead w;
        w)
    | _ | (exception (Unix.Unix_error _ | Sys_error _ | Failure _ | End_of_file)) ->
      Obs.Log.info "shard.handshake_failed" [ ("worker", string_of_int id) ];
      mark_dead w;
      w)

let ensure_spawned sh =
  if not sh.sh_spawned then begin
    sh.sh_spawned <- true;
    (* writes to a worker that died must surface as EPIPE, not kill us *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    sh.sh_workers <- Array.init sh.sh_requested (fun id -> spawn_one sh id)
  end

let shutdown sh = Array.iter retire sh.sh_workers

let stats sh =
  {
    st_requested = sh.sh_requested;
    st_spawned =
      Array.fold_left
        (fun a w -> if w.w_pid > 0 then a + 1 else a)
        0 sh.sh_workers;
    st_tasks = sh.sh_dispatched;
    st_steals = sh.sh_steals;
    st_fallback_local = sh.sh_fallback;
    st_workers =
      Array.to_list
        (Array.map
           (fun w ->
             {
               ws_tasks = w.w_tasks;
               ws_steals = w.w_steals;
               ws_busy_ns = w.w_busy_ns;
             })
           sh.sh_workers);
  }

(* ------------------------------------------------------------------ *)
(* Level scheduler *)

type task_spec = {
  ts_task : Engine_proto.task;  (* [t_id] is overwritten with the array index *)
  ts_local : unit -> unit;  (* in-process fallback: run the SCC here *)
  ts_on_outcomes : (string * Engine_proto.outcome) list -> unit;
}

(* only pops after the initial fill, so a plain array slice suffices *)
type dq = { dq_arr : int array; mutable dq_hd : int; mutable dq_tl : int }

let dq_len q = q.dq_tl - q.dq_hd

let dq_pop_front q =
  if dq_len q = 0 then None
  else begin
    let v = q.dq_arr.(q.dq_hd) in
    q.dq_hd <- q.dq_hd + 1;
    Some v
  end

let dq_pop_back q =
  if dq_len q = 0 then None
  else begin
    q.dq_tl <- q.dq_tl - 1;
    Some q.dq_arr.(q.dq_tl)
  end

let run_local sh (spec : task_spec) =
  sh.sh_fallback <- sh.sh_fallback + 1;
  Obs.Metrics.Counter.incr c_fallback;
  spec.ts_local ()

let rec select_read fds =
  match Unix.select fds [] [] (-1.0) with
  | rs, _, _ -> rs
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds

let run_level sh (specs : task_spec array) =
  let n = Array.length specs in
  if n = 0 then ()
  else begin
    ensure_spawned sh;
    let ws = sh.sh_workers in
    let w_cnt = Array.length ws in
    if not (Array.exists (fun w -> w.w_alive) ws) then
      Array.iter (fun s -> run_local sh s) specs
    else begin
      let queues =
        Array.init w_cnt (fun k ->
            let ids = ref [] in
            for id = n - 1 downto 0 do
              if id mod w_cnt = k then ids := id :: !ids
            done;
            let arr = Array.of_list !ids in
            { dq_arr = arr; dq_hd = 0; dq_tl = Array.length arr })
      in
      let inflight = Array.make w_cnt None in
      let remaining = ref n in
      let pick w =
        match dq_pop_front queues.(w.w_id) with
        | Some id -> Some id
        | None -> (
          (* steal from the tail of the longest queue (dead workers'
             queues included — their homework is up for grabs) *)
          let best = ref (-1) in
          let best_len = ref 0 in
          Array.iteri
            (fun k q ->
              let l = dq_len q in
              if l > !best_len then begin
                best := k;
                best_len := l
              end)
            queues;
          if !best < 0 then None
          else
            match dq_pop_back queues.(!best) with
            | Some id ->
              sh.sh_steals <- sh.sh_steals + 1;
              w.w_steals <- w.w_steals + 1;
              Obs.Metrics.Counter.incr c_steals;
              Some id
            | None -> None)
      in
      let handle_death w =
        (* the in-flight task (if any) re-runs locally; queued tasks stay
           stealable by the survivors *)
        let stuck = inflight.(w.w_id) in
        inflight.(w.w_id) <- None;
        mark_dead w;
        Obs.Log.info "shard.worker_died"
          [ ("worker", string_of_int w.w_id); ("pid", string_of_int w.w_pid) ];
        match stuck with
        | Some id ->
          run_local sh specs.(id);
          decr remaining
        | None -> ()
      in
      let rec try_dispatch w =
        if w.w_alive && inflight.(w.w_id) = None then
          match pick w with
          | None -> ()
          | Some id -> (
            let tk = { specs.(id).ts_task with Engine_proto.t_id = id } in
            match Engine_proto.write_msg w.w_to (Engine_proto.Task tk) with
            | () ->
              inflight.(w.w_id) <- Some id;
              w.w_tasks <- w.w_tasks + 1;
              sh.sh_dispatched <- sh.sh_dispatched + 1;
              Obs.Metrics.Counter.incr c_tasks
            | exception (Unix.Unix_error _ | Sys_error _) ->
              handle_death w;
              (* the picked task was never sent *)
              run_local sh specs.(id);
              decr remaining;
              try_dispatch w)
      in
      Array.iter try_dispatch ws;
      while !remaining > 0 do
        Obs.Metrics.Gauge.set g_queue_depth
          (Array.fold_left (fun a q -> a + dq_len q) 0 queues);
        let busy =
          Array.to_list ws
          |> List.filter (fun w -> w.w_alive && inflight.(w.w_id) <> None)
        in
        if busy = [] then begin
          (* every worker is gone: drain what's left in id order *)
          Array.iter
            (fun q ->
              let rec go () =
                match dq_pop_front q with
                | Some id ->
                  run_local sh specs.(id);
                  decr remaining;
                  go ()
                | None -> ()
              in
              go ())
            queues
        end
        else begin
          let rs = select_read (List.map (fun w -> w.w_from) busy) in
          List.iter
            (fun fd ->
              let w = List.find (fun w -> w.w_from == fd) busy in
              match Engine_proto.read_msg fd with
              | Some (Engine_proto.Result r) ->
                let id =
                  match inflight.(w.w_id) with
                  | Some id -> id
                  | None -> failwith "Engine_shard: result with nothing in flight"
                in
                if r.Engine_proto.r_id <> id then
                  failwith "Engine_shard: result id mismatch";
                inflight.(w.w_id) <- None;
                w.w_busy_ns <- w.w_busy_ns + r.Engine_proto.r_busy_ns;
                (Linear.Solver_stats.absorb
                   (Marshal.from_string r.Engine_proto.r_solver 0
                     : Linear.Solver_stats.t));
                Obs.Metrics.Counter.add c_degraded r.Engine_proto.r_degraded;
                decr remaining;
                (* completing before re-dispatching keeps the level's slot
                   writes ordered per task, like the pool's batches *)
                specs.(id).ts_on_outcomes r.Engine_proto.r_outcomes;
                try_dispatch w
              | None | Some _
              | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
                handle_death w)
            rs
        end
      done
    end
  end
