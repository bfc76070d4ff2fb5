type kind =
  | Subscript of int
  | Ivar
  | Sym

type t = { id : int; name : string; kind : kind }

(* Ids below [sym_limit] are computed by the caller ([sym]); [fresh] mints
   above it.  The counter is atomic so that [fresh] is safe to call from
   several domains at once (the engine fans per-PU collection out in
   parallel). *)
let sym_limit = 1 lsl 48
let counter = Atomic.make sym_limit

let fresh ~name kind = { id = Atomic.fetch_and_add counter 1 + 1; name; kind }

let sym ~id ~name =
  if id < 0 || id >= sym_limit then invalid_arg "Var.sym: id out of range";
  { id; name; kind = Sym }

let current () = Atomic.get counter

let rec advance_past n =
  let cur = Atomic.get counter in
  if cur >= n then ()
  else if not (Atomic.compare_and_set counter cur n) then advance_past n

(* Canonical subscript variables: dimension k of every region description is
   the same variable, so regions over the same array compose directly.
   Their ids are negative to stay disjoint from [fresh] ids.  The table is
   only a memoization of a pure construction, but it is still guarded so
   concurrent first uses cannot corrupt the bucket lists. *)
let subscript_table : (int, t) Hashtbl.t = Hashtbl.create 16
let subscript_mutex = Mutex.create ()

let subscript k =
  Mutex.lock subscript_mutex;
  let v =
    match Hashtbl.find_opt subscript_table k with
    | Some v -> v
    | None ->
      let v =
        { id = -(k + 1); name = Printf.sprintf "d%d" k; kind = Subscript k }
      in
      Hashtbl.add subscript_table k v;
      v
  in
  Mutex.unlock subscript_mutex;
  v

let id t = t.id
let name t = t.name
let kind t = t.kind

let is_subscript t = match t.kind with Subscript _ -> true | Ivar | Sym -> false
let is_ivar t = match t.kind with Ivar -> true | Subscript _ | Sym -> false
let is_sym t = match t.kind with Sym -> true | Subscript _ | Ivar -> false

(* Computed ids are unique within one module, not across modules: an id
   tie between two variables is broken on the name. *)
let compare a b =
  let c = Int.compare a.id b.id in
  if c <> 0 || a == b then c else String.compare a.name b.name

let equal a b = a == b || (a.id = b.id && String.equal a.name b.name)

let pp ppf t = Format.pp_print_string ppf t.name

module Ord = struct
  type nonrec t = t
  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
