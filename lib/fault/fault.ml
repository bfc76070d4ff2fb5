(* Deterministic, seed-driven fault injection, and the degradation plan of
   a run.

   The pipeline calls [inject site ~key] at a handful of tagged points
   (store reads/writes, marshal decode, pool workers, solver queries).
   Whether a point fires is a pure function of (seed, site, key): the first
   8 bytes of an MD5 over the three are mapped to a uniform in [0,1) and
   compared against the configured rate.  No counters, no clocks — the same
   spec over the same inputs fires at exactly the same points whatever the
   domain-pool schedule, which is what makes injected-fault runs
   reproducible and lets tests assert byte-identity of the non-faulted
   remainder.

   The specs live in a [plan] bound to the domain running a run (and handed
   by the engine's pool to the workers of each batch), never in a process
   global: concurrent runs keep their own settings.  With no plan bound,
   [inject] is one domain-local read. *)

type site = Io_read | Io_write | Marshal | Pool | Solver

let all_sites = [ Io_read; Io_write; Marshal; Pool; Solver ]

let site_name = function
  | Io_read -> "store.read"
  | Io_write -> "store.write"
  | Marshal -> "store.marshal"
  | Pool -> "pool"
  | Solver -> "solver"

let site_of_name = function
  | "store.read" -> Some Io_read
  | "store.write" -> Some Io_write
  | "store.marshal" -> Some Marshal
  | "pool" -> Some Pool
  | "solver" -> Some Solver
  | _ -> None

type spec = {
  sp_site : site;
  sp_rate : float;  (* probability in [0,1] that a point fires *)
  sp_seed : int;
  sp_only : string option;  (* substring filter over injection keys *)
}

exception Injected of site * string

let () =
  Printexc.register_printer (function
    | Injected (site, key) ->
      Some (Printf.sprintf "Fault.Injected(%s, %S)" (site_name site) key)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Spec grammar: SITE:RATE:SEED[:ONLY]; SITE may be "all". *)

let parse_spec s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char ':' s with
  | site_s :: rate_s :: seed_s :: rest -> (
    let sites =
      if site_s = "all" then Some all_sites
      else Option.map (fun x -> [ x ]) (site_of_name site_s)
    in
    match sites with
    | None ->
      fail "unknown fault site %S (store.read|store.write|store.marshal|pool|solver|all)"
        site_s
    | Some sites -> (
      match (float_of_string_opt rate_s, int_of_string_opt seed_s) with
      | Some rate, Some seed when rate >= 0. && rate <= 1. ->
        (* ONLY is the remainder verbatim: injection keys contain colons
           ("summarize:main"), so the filter must be allowed to as well *)
        let only =
          match rest with [] -> None | _ -> Some (String.concat ":" rest)
        in
        Ok
          (List.map
             (fun sp_site ->
               { sp_site; sp_rate = rate; sp_seed = seed; sp_only = only })
             sites)
      | Some _, Some _ -> fail "fault rate %S out of [0,1]" rate_s
      | _ -> fail "malformed fault spec %S (expected SITE:RATE:SEED[:ONLY])" s))
  | _ -> fail "malformed fault spec %S (expected SITE:RATE:SEED[:ONLY])" s

let parse_specs strings =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | s :: rest -> (
      match parse_spec s with
      | Ok specs -> go (specs :: acc) rest
      | Error _ as e -> e)
  in
  go [] strings

(* ------------------------------------------------------------------ *)
(* The run's plan: bound per domain, so concurrent runs never share it. *)

type plan = { pl_specs : spec list; pl_step_budget : int option }

let none = { pl_specs = []; pl_step_budget = None }
let plan_key = Domain.DLS.new_key (fun () -> none)
let current () = Domain.DLS.get plan_key

let with_plan plan f =
  let prev = current () in
  Domain.DLS.set plan_key plan;
  Fun.protect ~finally:(fun () -> Domain.DLS.set plan_key prev) f

(* one injected-faults counter per site (registered eagerly; counters count
   regardless of the Obs.Metrics enable flag, like the engine's) *)
let counters =
  List.map
    (fun s -> (s, Obs.Metrics.counter ("fault.injected." ^ site_name s)))
    all_sites

(* ------------------------------------------------------------------ *)
(* The decision function: MD5(seed | site | key) -> uniform in [0,1). *)

let uniform ~seed site ~key =
  let d =
    Digest.string (string_of_int seed ^ "|" ^ site_name site ^ "|" ^ key)
  in
  let bits = ref 0 in
  for i = 0 to 5 do
    bits := (!bits lsl 8) lor Char.code d.[i]
  done;
  float_of_int !bits /. 281474976710656. (* 2^48 *)

let contains_sub ~sub s =
  let ns = String.length s and nb = String.length sub in
  let rec go i = i + nb <= ns && (String.sub s i nb = sub || go (i + 1)) in
  nb = 0 || go 0

let spec_fires sp site ~key =
  sp.sp_site = site
  && (match sp.sp_only with
     | None -> true
     | Some sub -> contains_sub ~sub key)
  && sp.sp_rate > 0.
  && uniform ~seed:sp.sp_seed site ~key < sp.sp_rate

let fires site ~key =
  List.exists (fun sp -> spec_fires sp site ~key) (current ()).pl_specs

let inject site ~key =
  if fires site ~key then begin
    Obs.Metrics.Counter.incr (List.assq site counters);
    Obs.Log.debug "fault.injected" (fun () ->
        [ ("site", site_name site); ("key", key) ]);
    raise (Injected (site, key))
  end

(* ------------------------------------------------------------------ *)
(* Structured diagnostics: what faulted, how bad, and what the pipeline
   degraded to instead of aborting.  These are what --diagnostics writes
   and bench check-json validates. *)

module Diag = struct
  type severity = Error | Warning

  type t = {
    d_site : string;  (* injection-site or subsystem name *)
    d_severity : severity;
    d_pu : string;  (* PU name, source file, or "*" *)
    d_action : string;  (* recovery action taken *)
    d_detail : string;
  }

  let make ?(severity = Warning) ~site ~pu ~action detail =
    { d_site = site; d_severity = severity; d_pu = pu; d_action = action;
      d_detail = detail }

  let severity_name = function Error -> "error" | Warning -> "warning"

  let compare a b =
    compare
      (a.d_site, a.d_pu, a.d_action, a.d_detail, severity_name a.d_severity)
      (b.d_site, b.d_pu, b.d_action, b.d_detail, severity_name b.d_severity)

  let pp ppf d =
    Format.fprintf ppf "%s: %s: pu=%s action=%s %s"
      (severity_name d.d_severity) d.d_site d.d_pu d.d_action d.d_detail

  let to_json d =
    Printf.sprintf
      "{\"site\": \"%s\", \"severity\": \"%s\", \"pu\": \"%s\", \"action\": \
       \"%s\", \"detail\": \"%s\"}"
      (Obs.Json.escape d.d_site)
      (severity_name d.d_severity)
      (Obs.Json.escape d.d_pu) (Obs.Json.escape d.d_action)
      (Obs.Json.escape d.d_detail)

  let schema_version = 1

  let dump_json diags =
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf "{\n  \"schema_version\": %d,\n  \"diagnostics\": ["
         schema_version);
    List.iteri
      (fun i d ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b "\n    ";
        Buffer.add_string b (to_json d))
      diags;
    Buffer.add_string b "\n  ]\n}\n";
    Buffer.contents b

  let save ~path diags =
    let oc = open_out_bin path in
    output_string oc (dump_json (List.sort compare diags));
    close_out oc

  let of_json n entry =
    let str field =
      match Obs.Json.member field entry with
      | Some (Obs.Json.Str s) -> s
      | _ -> Obs.Json.malformed "diagnostic %d without %S string" n field
    in
    let site = str "site" in
    if site = "" then Obs.Json.malformed "diagnostic %d has empty site" n;
    let severity =
      match str "severity" with
      | "error" -> Error
      | "warning" -> Warning
      | s ->
        Obs.Json.malformed "diagnostic %d (site %S) has unknown severity %S" n
          site s
    in
    let nonempty field what =
      match str field with
      | "" ->
        Obs.Json.malformed "diagnostic %d (site %S) has empty %s" n site what
      | s -> s
    in
    let pu = nonempty "pu" "pu" in
    let action = nonempty "action" "recovery action" in
    make ~severity ~site ~pu ~action (str "detail")

  let parse =
    Obs.Json.decode (fun doc ->
        Obs.Json.require_version ~what:"diagnostics file" schema_version doc;
        match Obs.Json.member "diagnostics" doc with
        | Some (Obs.Json.List entries) ->
          List.mapi (fun i -> of_json (i + 1)) entries
        | _ ->
          Obs.Json.malformed "diagnostics file without a diagnostics array")
end
