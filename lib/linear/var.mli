(** Variables of the linear constraint language.

    The region analysis distinguishes the roles the paper's ARA module gives
    to bound terms (CONST / IVAR / LINDEX / SUBSCR):

    - {!Subscript}[ k] — the canonical variable standing for dimension [k] of
      the array region being described (the paper's SUBSCR / LINDEX);
    - {!Ivar} — a loop induction variable, eliminated by projection;
    - {!Sym} — a symbolic program value (formal scalar, COMMON scalar, ...)
      that survives projection and renders symbolically. *)

type kind =
  | Subscript of int  (** region dimension, 0-based *)
  | Ivar              (** loop induction variable *)
  | Sym               (** symbolic program constant *)

type t = private { id : int; name : string; kind : kind }

val fresh : name:string -> kind -> t
(** Allocates a globally unique variable, with an id above every id
    {!sym} takes.  Safe to call concurrently from several domains. *)

val sym : id:int -> name:string -> t
(** The [Sym] variable with a caller-computed id, [0 <= id < 2^48]
    (see [Ipa.Collect.sym_var]): the same [id] and [name] give an equal
    variable in every process.  Ids are unique within one module's
    analysis only; {!compare} and {!equal} break an id tie on the name, so
    two modules' variables that share an id but not a name stay distinct.
    @raise Invalid_argument if [id] is out of range. *)

val current : unit -> int
(** The last id handed out by {!fresh} — a snapshot the engine's on-disk
    summary cache records so a later process can {!advance_past} it. *)

val advance_past : int -> unit
(** Ensure future {!fresh} ids are strictly greater than [n]; used when
    deserialized structures carry variables minted by another process. *)

val subscript : int -> t
(** [subscript k] is the canonical (interned) variable for dimension [k];
    repeated calls return the identical variable. *)

val id : t -> int
val name : t -> string
val kind : t -> kind

val is_subscript : t -> bool
val is_ivar : t -> bool
val is_sym : t -> bool

val compare : t -> t -> int
(** By id, then (for an id tie of distinct values) by name. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
