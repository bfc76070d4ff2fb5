(** One row of the array-analysis table — the unit of the [.rgn] file and of
    Dragon's tabular view (paper, Section V-A: "We output these information
    to a comma separated plain file .rgn, where each row maintains
    information about each region per access mode"). *)

type t = {
  scope : string;  (** procedure name, or "@" for the global scope *)
  array : string;
  file : string;   (** object file, e.g. "verify.o" *)
  mode : string;   (** USE / DEF / FORMAL / PASSED *)
  references : int;  (** reference count for (array, mode) in this scope *)
  dimensions : int;
  lb : string;     (** per-dimension, source order, "|"-separated *)
  ub : string;
  stride : string;
  element_size : int;
  data_type : string;
  dim_size : string;   (** "64|65|65|5" style *)
  tot_size : int;      (** total element count; 0 for variable-length *)
  size_bytes : int;
  mem_loc : string;    (** hexadecimal *)
  acc_density : int;   (** floor(100 * references / size_bytes) *)
  line : int;          (** source line of the reference (locate feature) *)
  props : string;
      (** declared index-array properties the region leaned on: ["-"] or a
          subset of [b m i] ({!Lang.Iprop.flags_token}) *)
}

val density : references:int -> size_bytes:int -> int
(** The paper's access density as an integer percentage; 0 when the array
    has no known size. *)

val header : string list

val legacy_header : string list
(** The pre-Props 17-column header, still accepted by the reader. *)

val to_fields : t -> string list

val add_record : Buffer.t -> t -> unit
(** The row's [.rgn] record, [to_fields] CSV-encoded with its newline,
    appended field by field. *)

val of_fields : string list -> (t, string) result
(** Accepts both 17-field (legacy, [props = "-"]) and 18-field rows.  An
    unknown Props token conservatively degrades LB/UB/Stride to ["*"],
    mirroring the legacy clamped-bit rule for summary rows. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
