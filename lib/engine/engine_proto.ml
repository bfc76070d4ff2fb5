(* Wire protocol between the shard coordinator and its worker processes.

   Hand-framed binary over pipes: every message is one tag byte, an 8-byte
   big-endian payload length, and the payload; strings inside payloads are
   4-byte big-endian length-prefixed.  The interesting payloads — WHIRL
   modules, collect inputs, summaries — are not re-serialized for the
   wire: they travel as the exact images the cache layer already defines
   (the [Whirl_io] text format for modules, [Engine_store] entry images
   for collect/summary payloads), so a byte that crosses the wire is a
   byte that could equally have come off the shared tier.  Entry images
   are Marshal blobs and therefore only safe between processes of the same
   binary; the Hello handshake carries the store schema fingerprint so the
   coordinator can verify that before anything else is exchanged. *)

type member = {
  mb_name : string;
  mb_poisoned : bool;
      (* degraded during collection: the worker must install the opaque
         summary at this member's position instead of analyzing *)
  mb_collect : string;  (* [Engine_store.encode_collect] image; "" if poisoned *)
  mb_key : string;
      (* the member's Merkle summary key, so the worker can publish its
         computed summary straight into the shared tier; "" if unknown *)
}

type task = {
  t_id : int;
  t_members : member list;  (* the SCC's not-yet-summarized PUs, call-graph order *)
  t_callees : (string * string) list;
      (* name -> [Engine_store.encode_summary] image, for every summary the
         members may look up that is already known to the coordinator *)
}

type outcome =
  | O_summary of string  (* computed: [Engine_store.encode_summary] image *)
  | O_opaque  (* pre-poisoned member: opaque summary installed *)
  | O_poisoned of string * string * string
      (* (stage, diag site, error): isolated under keep-going worker-side;
         the coordinator re-raises the matching diagnostic *)
  | O_failed of string * (string * string) option
      (* (error, injected (site name, key)): fatal without keep-going; the
         coordinator re-raises *)

type result = {
  r_id : int;
  r_busy_ns : int;
  r_degraded : int;  (* solver.degraded counter delta over the task *)
  r_solver : string;  (* Marshal image of the [Linear.Solver_stats.t] delta *)
  r_outcomes : (string * outcome) list;
}

type init = {
  in_module : string;  (* [Whirl_io.write] image of the module under analysis *)
  in_keep_going : bool;
  in_fault_specs : string list;  (* [Fault.spec_to_string] forms *)
  in_solver_budget : int option;
  in_cache_dir : string option;  (* shared tier to publish summaries into *)
}

type msg =
  | Hello of int * string  (* (pid, store schema fingerprint) *)
  | Init of init
  | Task of task
  | Result of result
  | Shutdown

(* ------------------------------------------------------------------ *)
(* Payload primitives *)

let put_u64 buf n =
  for i = 7 downto 0 do
    Buffer.add_char buf (Char.chr ((n lsr (i * 8)) land 0xff))
  done

let put_u32 buf n =
  for i = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((n lsr (i * 8)) land 0xff))
  done

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let put_str buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_opt_str buf = function
  | None -> put_bool buf false
  | Some s ->
    put_bool buf true;
    put_str buf s

let put_list buf f xs =
  put_u32 buf (List.length xs);
  List.iter (f buf) xs

type cursor = { src : string; mutable pos : int }

let take c n =
  if c.pos + n > String.length c.src then failwith "Engine_proto: short payload";
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

let get_u64 c =
  let s = take c 8 in
  let n = ref 0 in
  String.iter (fun ch -> n := (!n lsl 8) lor Char.code ch) s;
  !n

let get_u32 c =
  let s = take c 4 in
  let n = ref 0 in
  String.iter (fun ch -> n := (!n lsl 8) lor Char.code ch) s;
  !n

let get_bool c = take c 1 = "\001"
let get_str c = take c (get_u32 c)
let get_opt_str c = if get_bool c then Some (get_str c) else None

let get_list c f =
  let n = get_u32 c in
  List.init n (fun _ -> f c)

(* ------------------------------------------------------------------ *)
(* Message bodies *)

let put_member buf m =
  put_str buf m.mb_name;
  put_bool buf m.mb_poisoned;
  put_str buf m.mb_collect;
  put_str buf m.mb_key

let get_member c =
  let mb_name = get_str c in
  let mb_poisoned = get_bool c in
  let mb_collect = get_str c in
  let mb_key = get_str c in
  { mb_name; mb_poisoned; mb_collect; mb_key }

let put_pair buf (a, b) =
  put_str buf a;
  put_str buf b

let get_pair c =
  let a = get_str c in
  let b = get_str c in
  (a, b)

let put_outcome buf = function
  | O_summary s ->
    Buffer.add_char buf 'S';
    put_str buf s
  | O_opaque -> Buffer.add_char buf 'O'
  | O_poisoned (stage, site, err) ->
    Buffer.add_char buf 'P';
    put_str buf stage;
    put_str buf site;
    put_str buf err
  | O_failed (err, injected) -> (
    Buffer.add_char buf 'F';
    put_str buf err;
    match injected with
    | None -> put_bool buf false
    | Some (site, key) ->
      put_bool buf true;
      put_str buf site;
      put_str buf key)

let get_outcome c =
  match (take c 1).[0] with
  | 'S' -> O_summary (get_str c)
  | 'O' -> O_opaque
  | 'P' ->
    let stage = get_str c in
    let site = get_str c in
    let err = get_str c in
    O_poisoned (stage, site, err)
  | 'F' ->
    let err = get_str c in
    let injected =
      if get_bool c then
        let site = get_str c in
        let key = get_str c in
        Some (site, key)
      else None
    in
    O_failed (err, injected)
  | ch -> failwith (Printf.sprintf "Engine_proto: bad outcome tag %C" ch)

let put_named_outcome buf (name, o) =
  put_str buf name;
  put_outcome buf o

let get_named_outcome c =
  let name = get_str c in
  let o = get_outcome c in
  (name, o)

let encode msg =
  let buf = Buffer.create 256 in
  let tag =
    match msg with
    | Hello (pid, schema) ->
      put_u64 buf pid;
      put_str buf schema;
      'H'
    | Init i ->
      put_str buf i.in_module;
      put_bool buf i.in_keep_going;
      put_list buf put_str i.in_fault_specs;
      put_bool buf (i.in_solver_budget <> None);
      put_u64 buf (match i.in_solver_budget with Some b -> b | None -> 0);
      put_opt_str buf i.in_cache_dir;
      'I'
    | Task t ->
      put_u64 buf t.t_id;
      put_list buf put_member t.t_members;
      put_list buf put_pair t.t_callees;
      'T'
    | Result r ->
      put_u64 buf r.r_id;
      put_u64 buf r.r_busy_ns;
      put_u64 buf r.r_degraded;
      put_str buf r.r_solver;
      put_list buf put_named_outcome r.r_outcomes;
      'R'
    | Shutdown -> 'Q'
  in
  (tag, Buffer.contents buf)

let decode tag payload =
  let c = { src = payload; pos = 0 } in
  let msg =
    match tag with
    | 'H' ->
      let pid = get_u64 c in
      let schema = get_str c in
      Hello (pid, schema)
    | 'I' ->
      let in_module = get_str c in
      let in_keep_going = get_bool c in
      let in_fault_specs = get_list c get_str in
      let has_budget = get_bool c in
      let budget = get_u64 c in
      let in_solver_budget = if has_budget then Some budget else None in
      let in_cache_dir = get_opt_str c in
      Init
        { in_module; in_keep_going; in_fault_specs; in_solver_budget; in_cache_dir }
    | 'T' ->
      let t_id = get_u64 c in
      let t_members = get_list c get_member in
      let t_callees = get_list c get_pair in
      Task { t_id; t_members; t_callees }
    | 'R' ->
      let r_id = get_u64 c in
      let r_busy_ns = get_u64 c in
      let r_degraded = get_u64 c in
      let r_solver = get_str c in
      let r_outcomes = get_list c get_named_outcome in
      Result { r_id; r_busy_ns; r_degraded; r_solver; r_outcomes }
    | 'Q' -> Shutdown
    | ch -> failwith (Printf.sprintf "Engine_proto: bad message tag %C" ch)
  in
  (* leftover bytes mean the two ends disagree on a layout: fail loudly
     rather than run on a half-understood message *)
  if c.pos <> String.length payload then failwith "Engine_proto: trailing bytes";
  msg

(* ------------------------------------------------------------------ *)
(* Framing over file descriptors *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let write_msg fd msg =
  let tag, payload = encode msg in
  let header = Bytes.create 9 in
  Bytes.set header 0 tag;
  let n = String.length payload in
  for i = 0 to 7 do
    Bytes.set header (1 + i) (Char.chr ((n lsr ((7 - i) * 8)) land 0xff))
  done;
  (* one write for the common small case avoids interleaving hazards if a
     future caller ever shares a descriptor; large payloads stream *)
  write_all fd (Bytes.to_string header ^ payload)

(* A worker cannot guarantee its stdout is clean when the protocol
   starts: libraries linked into the host binary may print at module
   initialization, before main ever runs (qcheck's seed line in the test
   runner, for example).  The worker therefore leads with a fixed magic
   string, and the coordinator discards stream bytes until it sees it. *)
let magic = "\xfeUHC-SHARD\x01"

let write_magic fd = write_all fd magic

let read_magic fd =
  let n = String.length magic in
  let buf = Bytes.create 1 in
  (* magic.[0] appears nowhere else in [magic], so a failed match can
     only restart at position 0 or 1 *)
  let rec go matched budget =
    if matched = n then true
    else if budget = 0 then false
    else
      match Unix.read fd buf 0 1 with
      | 0 -> false
      | _ ->
        let c = Bytes.get buf 0 in
        if c = magic.[matched] then go (matched + 1) budget
        else go (if c = magic.[0] then 1 else 0) (budget - 1)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go matched budget
  in
  go 0 65536

let really_read fd n =
  (* [`Eof] only when the stream ends exactly on a message boundary *)
  let b = Bytes.create n in
  let rec go off =
    if off = n then `Ok (Bytes.to_string b)
    else
      match Unix.read fd b off (n - off) with
      | 0 -> if off = 0 then `Eof else failwith "Engine_proto: truncated message"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_msg fd =
  match really_read fd 9 with
  | `Eof -> None
  | `Ok header ->
    let tag = header.[0] in
    let n = ref 0 in
    for i = 1 to 8 do
      n := (!n lsl 8) lor Char.code header.[i]
    done;
    let payload =
      if !n = 0 then ""
      else
        match really_read fd !n with
        | `Ok s -> s
        | `Eof -> failwith "Engine_proto: truncated message"
    in
    Some (decode tag payload)
