(* The viewer side of the run ledger (lib/obs/ledger.ml): trend tables
   with sparklines over any recorded metric (dragon history), a threshold
   regression gate suitable for CI (dragon regress), and per-PU
   incrementality explanations (dragon explain).

   Records are plain Obs.Json values; a "metric" is a dotted path into
   one record — "wall_s", "cache.summary_misses", "solver.fm_runs",
   "verdicts.bounds.maybe" — resolved member by member, with numeric
   strings accepted so verdict tallies written as strings still trend. *)

type run = { run_id : string; record : Obs.Json.t }

let load ~cache_dir =
  match Obs.Ledger.read_all ~cache_dir with
  | [] ->
    Error
      (Printf.sprintf "no ledger records under %s (run uhc --cache-dir %s)"
         (Obs.Ledger.dir ~cache_dir) cache_dir)
  | records ->
    Ok (List.map (fun (run_id, record) -> { run_id; record }) records)

let metric record path =
  let rec walk v = function
    | [] -> (
      match v with
      | Obs.Json.Num f -> Some f
      | Obs.Json.Str s -> float_of_string_opt s
      | Obs.Json.Bool b -> Some (if b then 1.0 else 0.0)
      | _ -> None)
    | k :: rest -> (
      match Obs.Json.member k v with Some v' -> walk v' rest | None -> None)
  in
  walk record (String.split_on_char '.' path)

(* ---- history ------------------------------------------------------- *)

let spark_blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
    let lo = List.fold_left min infinity values in
    let hi = List.fold_left max neg_infinity values in
    let buf = Buffer.create (3 * List.length values) in
    List.iter
      (fun v ->
        let i =
          if hi <= lo then 3
          else
            let t = (v -. lo) /. (hi -. lo) in
            min 7 (max 0 (int_of_float (t *. 7.999)))
        in
        Buffer.add_string buf spark_blocks.(i))
      values;
    Buffer.contents buf

let take_last n l =
  let len = List.length l in
  if n <= 0 || len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let render_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let history ?(last = 10) ~metrics runs =
  let runs = take_last last runs in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "ledger: %d run(s), oldest first\n" (List.length runs));
  List.iter
    (fun path ->
      let present =
        List.filter_map
          (fun r ->
            match metric r.record path with
            | Some v -> Some (r, v)
            | None -> None)
          runs
      in
      if present = [] then
        Buffer.add_string buf
          (Printf.sprintf "\n%s: not recorded in these runs\n" path)
      else begin
        let values = List.map snd present in
        Buffer.add_string buf
          (Printf.sprintf "\n%s  %s\n" path (sparkline values));
        Buffer.add_string buf
          (Printf.sprintf "  %-28s %14s  %s\n" "run" "value" "when");
        List.iter
          (fun (r, v) ->
            let ts =
              match metric r.record "ts" with
              | Some t ->
                let tm = Unix.localtime t in
                Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d"
                  (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
                  tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
                  tm.Unix.tm_sec
              | None -> "-"
            in
            Buffer.add_string buf
              (Printf.sprintf "  %-28s %14s  %s\n" r.run_id
                 (render_value v) ts))
          present;
        let lo = List.fold_left min infinity values in
        let hi = List.fold_left max neg_infinity values in
        let n = List.length values in
        let mean = List.fold_left ( +. ) 0. values /. float_of_int n in
        Buffer.add_string buf
          (Printf.sprintf "  min %s  mean %s  max %s\n" (render_value lo)
             (render_value mean) (render_value hi))
      end)
    metrics;
  Buffer.contents buf

(* ---- regress ------------------------------------------------------- *)

(* A rule allows the candidate to exceed the baseline by [pct] percent;
   0 means "no increase at all", a negative value demands a decrease
   (the hook verify.sh uses to inject a guaranteed breach on identical
   runs).  A baseline of 0 breaches on any positive candidate. *)
type rule = { r_path : string; r_pct : float }

type verdict = {
  v_path : string;
  v_baseline : float;
  v_candidate : float;
  v_allowed : float;
  v_breached : bool;
}

(* Only deterministic counters by default: verdict tallies, diagnostics
   and the cache miss count are byte-stable across reruns of the same
   inputs at any --jobs setting, so a no-change rerun always passes.
   cache.summary_misses in particular enforces jobs invariance: a warm
   rerun of an unchanged corpus must recompute nothing however many
   domains ran it.  Wall-clock and scheduling-dependent counters
   (wall_s, the solver.ctx_ counters) regress only when asked to via
   --threshold. *)
let default_rules =
  [
    { r_path = "verdicts.bounds.unsafe"; r_pct = 0. };
    { r_path = "verdicts.bounds.maybe"; r_pct = 0. };
    { r_path = "diagnostics"; r_pct = 0. };
    { r_path = "cache.summary_misses"; r_pct = 0. };
  ]

let parse_rule s =
  match String.rindex_opt s '=' with
  | None -> Error (Printf.sprintf "bad threshold %S (want PATH=PCT)" s)
  | Some i -> (
    let path = String.sub s 0 i in
    let pct = String.sub s (i + 1) (String.length s - i - 1) in
    match float_of_string_opt pct with
    | Some p when path <> "" -> Ok { r_path = path; r_pct = p }
    | _ -> Error (Printf.sprintf "bad threshold %S (want PATH=PCT)" s))

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* [regress ?baseline ~rules runs] gates the newest run against the mean
   of up to [baseline] preceding comparable runs (same config digest;
   default 1 = the immediately preceding run).  Returns the rendered
   report and whether any rule breached. *)
let regress ?(baseline = 1) ~rules runs =
  match List.rev runs with
  | [] -> Error "empty ledger"
  | candidate :: older -> (
    let comparable =
      let cand_cfg =
        Option.bind (Obs.Json.member "config_digest" candidate.record)
          Obs.Json.to_string
      in
      List.filter
        (fun r ->
          match cand_cfg with
          | None -> true
          | Some d ->
            Option.bind (Obs.Json.member "config_digest" r.record)
              Obs.Json.to_string
            = Some d)
        older
    in
    let pool = if comparable = [] then older else comparable in
    match take_last baseline (List.rev pool) with
    | [] -> Error "ledger has no baseline run to compare against"
    | base_runs ->
      let rules = if rules = [] then default_rules else rules in
      let verdicts =
        List.filter_map
          (fun rule ->
            match metric candidate.record rule.r_path with
            | None -> None
            | Some cand ->
              let bases =
                List.filter_map
                  (fun r -> metric r.record rule.r_path)
                  base_runs
              in
              if bases = [] then None
              else
                let base = mean bases in
                let allowed = base *. (1. +. (rule.r_pct /. 100.)) in
                Some
                  {
                    v_path = rule.r_path;
                    v_baseline = base;
                    v_candidate = cand;
                    v_allowed = allowed;
                    v_breached = cand > allowed;
                  })
          rules
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "regress: candidate %s vs %d baseline run(s)%s\n"
           candidate.run_id (List.length base_runs)
           (if comparable = [] && older <> [] then
              " (no same-config run: using latest regardless)"
            else ""));
      Buffer.add_string buf
        (Printf.sprintf "  %-32s %12s %12s %12s  %s\n" "metric" "baseline"
           "candidate" "allowed" "status");
      List.iter
        (fun v ->
          Buffer.add_string buf
            (Printf.sprintf "  %-32s %12s %12s %12s  %s\n" v.v_path
               (render_value v.v_baseline)
               (render_value v.v_candidate)
               (render_value v.v_allowed)
               (if v.v_breached then "BREACH" else "ok")))
        verdicts;
      let breached = List.exists (fun v -> v.v_breached) verdicts in
      Buffer.add_string buf
        (if verdicts = [] then
           "regress: no rule matched any recorded metric\n"
         else if breached then "regress: REGRESSION\n"
         else "regress: OK\n");
      Ok (Buffer.contents buf, breached))

(* ---- explain ------------------------------------------------------- *)

let pus_of run =
  match Option.bind (Obs.Json.member "pus" run.record) Obs.Json.to_list with
  | None -> []
  | Some entries ->
    List.filter_map
      (fun e -> Result.to_option (Obs.Ledger.pu_of_json e))
      entries

let short_key k = if String.length k > 12 then String.sub k 0 12 else k

(* Transitive callers of [name] over the recorded callee edges — the
   blast radius: everything that re-summarizes if [name] changes. *)
let callers_closure pus name =
  let callers = Hashtbl.create 16 in
  List.iter
    (fun (p : Obs.Ledger.pu) ->
      List.iter
        (fun c ->
          let cur = try Hashtbl.find callers c with Not_found -> [] in
          Hashtbl.replace callers c (p.pu_name :: cur))
        p.pu_callees)
    pus;
  let seen = Hashtbl.create 16 in
  let rec go acc = function
    | [] -> acc
    | n :: rest ->
      if Hashtbl.mem seen n then go acc rest
      else begin
        Hashtbl.replace seen n ();
        let direct = try Hashtbl.find callers n with Not_found -> [] in
        go (List.rev_append direct acc) (List.rev_append direct rest)
      end
  in
  List.sort_uniq compare (go [] [ name ])

(* Why did [cur]'s summary miss, given the previous run's entries?  The
   Merkle keys localize the cause: key1 changed — the PU's own body (or
   the global symtab); key1 unchanged but key2 changed — some transitive
   callee, and diffing the callees' keys names the culprit(s). *)
let explain_pu buf ~(prev_pus : Obs.Ledger.pu list) ~cur_pus
    (cur : Obs.Ledger.pu) =
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "%s (%s)\n" cur.pu_name cur.pu_file;
  bpf "  last run: collect %s, summary %s\n"
    (if cur.pu_collect_hit then "HIT" else "MISS")
    (if cur.pu_summary_hit then "HIT" else "MISS");
  let named n (p : Obs.Ledger.pu) = p.pu_name = n in
  (match List.find_opt (named cur.pu_name) prev_pus with
  | None ->
    if prev_pus = [] then
      bpf "  no earlier run recorded: cold cache, everything was computed\n"
    else bpf "  not present in the previous run: new procedure\n"
  | Some prev ->
    if cur.pu_key1 <> prev.pu_key1 then
      bpf
        "  cause: its own content changed — key1 %s.. -> %s.. (body or \
         global symbol table edit)\n"
        (short_key prev.pu_key1) (short_key cur.pu_key1)
    else if cur.pu_key2 <> prev.pu_key2 then begin
      bpf
        "  cause: body unchanged (key1 stable) but a callee changed — \
         key2 %s.. -> %s..\n"
        (short_key prev.pu_key2) (short_key cur.pu_key2);
      let changed =
        List.filter_map
          (fun c ->
            match
              ( List.find_opt (named c) prev_pus,
                List.find_opt (named c) cur_pus )
            with
            | Some p, Some q when p.pu_key2 <> q.pu_key2 -> Some (c, p, q)
            | None, Some q -> Some (c, q, q)
            | _ -> None)
          cur.pu_callees
      in
      if changed = [] then
        bpf "  (no direct callee key changed: an indirect callee did)\n"
      else
        List.iter
          (fun (c, (p : Obs.Ledger.pu), (q : Obs.Ledger.pu)) ->
            if p == q then bpf "    changed callee: %s (new)\n" c
            else
              bpf "    changed callee: %s (key2 %s.. -> %s..)\n" c
                (short_key p.pu_key2) (short_key q.pu_key2))
          changed
    end
    else if cur.pu_summary_hit then
      bpf "  unchanged since the previous run: served from cache\n"
    else
      bpf
        "  keys unchanged yet re-analyzed: cache was cold or evicted (or \
         a degraded earlier run was never persisted)\n");
  let radius =
    List.filter (fun n -> n <> cur.pu_name) (callers_closure cur_pus cur.pu_name)
  in
  bpf "  blast radius: %d transitive caller(s)%s\n" (List.length radius)
    (if radius = [] then "" else ": " ^ String.concat ", " radius)

let verdict_delta buf prev_run cur_run =
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match
    ( Option.bind (Obs.Json.member "verdicts" prev_run.record) (fun v ->
          match v with Obs.Json.Obj kvs -> Some kvs | _ -> None),
      Option.bind (Obs.Json.member "verdicts" cur_run.record) (fun v ->
          match v with Obs.Json.Obj kvs -> Some kvs | _ -> None) )
  with
  | Some prev, Some cur when cur <> [] ->
    List.iter
      (fun (analysis, tallies) ->
        match tallies with
        | Obs.Json.Obj kvs ->
          let line =
            List.filter_map
              (fun (k, v) ->
                let now =
                  match v with
                  | Obs.Json.Num f -> Some f
                  | Obs.Json.Str s -> float_of_string_opt s
                  | _ -> None
                in
                let before =
                  Option.bind (List.assoc_opt analysis prev) (fun t ->
                      Option.bind (Obs.Json.member k t) (fun v ->
                          match v with
                          | Obs.Json.Num f -> Some f
                          | Obs.Json.Str s -> float_of_string_opt s
                          | _ -> None))
                in
                match (before, now) with
                | Some b, Some n ->
                  Some
                    (Printf.sprintf "%s %s->%s" k (render_value b)
                       (render_value n))
                | None, Some n ->
                  Some (Printf.sprintf "%s -:%s" k (render_value n))
                | _ -> None)
              kvs
          in
          bpf "  verdicts[%s]: %s\n" analysis (String.concat ", " line)
        | _ -> ())
      cur
  | _ -> ()

let explain ~target runs =
  match List.rev runs with
  | [] -> Error "empty ledger"
  | cur_run :: older ->
    let cur_pus = pus_of cur_run in
    if cur_pus = [] then
      Error
        (Printf.sprintf "run %s recorded no per-PU entries" cur_run.run_id)
    else
      let prev_run = List.nth_opt older 0 in
      let prev_pus =
        match prev_run with Some r -> pus_of r | None -> []
      in
      let matches =
        List.filter
          (fun (p : Obs.Ledger.pu) ->
            p.pu_name = target || p.pu_file = target
            || Filename.basename p.pu_file = target)
          cur_pus
      in
      if matches = [] then
        Error
          (Printf.sprintf "no PU or file %S in run %s (have: %s)" target
             cur_run.run_id
             (String.concat ", "
                (List.map (fun (p : Obs.Ledger.pu) -> p.pu_name) cur_pus)))
      else begin
        let buf = Buffer.create 1024 in
        Buffer.add_string buf
          (Printf.sprintf "explain: run %s%s\n" cur_run.run_id
             (match prev_run with
             | Some r -> Printf.sprintf " vs previous %s" r.run_id
             | None -> " (first recorded run)"));
        List.iter (explain_pu buf ~prev_pus ~cur_pus) matches;
        (match prev_run with
        | Some r -> verdict_delta buf r cur_run
        | None -> ());
        Ok (Buffer.contents buf)
      end
