(* Name -> instrument registry behind a mutex; the instruments themselves
   are atomics, so registration is the only synchronized operation —
   lookups happen once per call site at module initialization, updates are
   lock-free from any domain. *)

module Counter = struct
  type t = int Atomic.t

  let incr = Atomic.incr
  let add c n = ignore (Atomic.fetch_and_add c n)
  let get = Atomic.get
  let set = Atomic.set
end

type instrument = I_counter of Counter.t | I_hist of Hist.t

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let mutex = Mutex.create ()

let kind_name = function I_counter _ -> "counter" | I_hist _ -> "histogram"

let register name make match_ =
  Mutex.lock mutex;
  let r =
    match Hashtbl.find_opt registry name with
    | Some i -> (
      match match_ i with
      | Some x -> Ok x
      | None -> Error (kind_name i))
    | None ->
      let x, i = make () in
      Hashtbl.replace registry name i;
      Ok x
  in
  Mutex.unlock mutex;
  match r with
  | Ok x -> x
  | Error k ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %S already registered as a %s" name k)

let counter name =
  register name
    (fun () ->
      let c = Atomic.make 0 in
      (c, I_counter c))
    (function I_counter c -> Some c | _ -> None)

let histogram name =
  register name
    (fun () ->
      let h = Hist.create () in
      (h, I_hist h))
    (function I_hist h -> Some h | _ -> None)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

let sorted_items () =
  Mutex.lock mutex;
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
  Mutex.unlock mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) items

let names () = List.map fst (sorted_items ())

type hist_snapshot = {
  h_count : int;
  h_sum : int;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_buckets : (int * int * int) list;
}

type snapshot = S_counter of int | S_hist of hist_snapshot

let hist_of_buckets ~count ~sum buckets =
  let p = Hist.percentile_of_buckets buckets in
  {
    h_count = count;
    h_sum = sum;
    h_p50 = p 0.5;
    h_p95 = p 0.95;
    h_p99 = p 0.99;
    h_buckets = buckets;
  }

let snapshot () =
  List.map
    (fun (name, i) ->
      ( name,
        match i with
        | I_counter c -> S_counter (Counter.get c)
        | I_hist h ->
          S_hist
            (hist_of_buckets ~count:(Hist.count h) ~sum:(Hist.sum h)
               (Hist.nonzero_buckets h)) ))
    (sorted_items ())

(* bucket-wise [a - b] over two ascending nonzero-bucket lists *)
let rec sub_buckets a b =
  match (a, b) with
  | [], _ -> []
  | _, [] -> a
  | ((lo, hi, c) :: a'), ((lo', _, c') :: b') ->
    if lo < lo' then (lo, hi, c) :: sub_buckets a' b
    else if lo > lo' then sub_buckets a b'
    else if c > c' then (lo, hi, c - c') :: sub_buckets a' b'
    else sub_buckets a' b'

let diff later earlier =
  List.map
    (fun (name, s) ->
      ( name,
        match (s, List.assoc_opt name earlier) with
        | S_counter v, Some (S_counter v0) -> S_counter (v - v0)
        | S_hist h, Some (S_hist h0) ->
          S_hist
            (hist_of_buckets ~count:(h.h_count - h0.h_count)
               ~sum:(h.h_sum - h0.h_sum)
               (sub_buckets h.h_buckets h0.h_buckets))
        | s, _ -> s ))
    later

let value snap name =
  match List.assoc_opt name snap with Some (S_counter v) -> v | _ -> 0

let entry_json (name, s) =
  let num n = Json.Num (float_of_int n) in
  Json.Obj
    (("name", Json.Str name)
    ::
    (match s with
    | S_counter v -> [ ("kind", Json.Str "counter"); ("value", num v) ]
    | S_hist h ->
      [
        ("kind", Json.Str "histogram");
        ("count", num h.h_count);
        ("sum", num h.h_sum);
        ("p50", Json.Num h.h_p50);
        ("p95", Json.Num h.h_p95);
        ("p99", Json.Num h.h_p99);
        ( "buckets",
          Json.List
            (List.map
               (fun (lo, hi, c) ->
                 Json.Obj
                   [
                     ("lo", num lo);
                     ("hi", num (if hi = max_int then -1 else hi));
                     ("count", num c);
                   ])
               h.h_buckets) );
      ]))

let to_json snap = Json.List (List.map entry_json snap)

let dump_json snap =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"metrics\": [";
  List.iteri
    (fun i e ->
      Buffer.add_string b (if i = 0 then "\n    " else ",\n    ");
      Json.write b (entry_json e))
    snap;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let save ~path snap =
  let oc = open_out_bin path in
  output_string oc (dump_json snap);
  close_out oc

(* The inverse of [entry_json], with the rules a dump obeys: names sorted
   and unique, and a histogram's bucket counts summing to its count. *)
let entry_of_json ~after entry =
  let str field =
    match Json.member field entry with
    | Some (Json.Str s) -> s
    | _ -> Json.malformed "metric without %S string" field
  in
  let name = str "name" in
  if name <= after then
    Json.malformed "metric names not sorted/unique at %S (after %S)" name after;
  let number j field =
    match Option.bind (Json.member field j) Json.to_float with
    | Some v -> v
    | None -> Json.malformed "metric %S lacks number %S" name field
  in
  let int j field =
    match Option.bind (Json.member field j) Json.to_int with
    | Some v -> v
    | None -> Json.malformed "metric %S lacks integer %S" name field
  in
  match str "kind" with
  | "counter" -> (name, S_counter (int entry "value"))
  | "histogram" ->
    let h_count = int entry "count" in
    let h_sum = int entry "sum" in
    let h_p50 = number entry "p50" in
    let h_p95 = number entry "p95" in
    let h_p99 = number entry "p99" in
    let h_buckets =
      match Json.member "buckets" entry with
      | Some (Json.List l) ->
        List.map
          (fun b ->
            let lo = int b "lo" and hi = int b "hi" in
            if hi >= 0 && hi < lo then
              Json.malformed "histogram %S bucket hi < lo" name;
            (lo, (if hi = -1 then max_int else hi), int b "count"))
          l
      | _ -> Json.malformed "histogram %S lacks buckets" name
    in
    let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 h_buckets in
    if total <> h_count then
      Json.malformed "histogram %S bucket counts sum to %d, count %d" name total
        h_count;
    (name, S_hist { h_count; h_sum; h_p50; h_p95; h_p99; h_buckets })
  | kind -> Json.malformed "metric %S has unknown kind %S" name kind

let of_json = function
  | Json.List entries -> (
    try
      Ok
        (List.rev
           (List.fold_left
              (fun acc entry ->
                let after = match acc with (n, _) :: _ -> n | [] -> "" in
                entry_of_json ~after entry :: acc)
              [] entries))
    with Json.Malformed m -> Error m)
  | _ -> Error "metrics are not a list"
