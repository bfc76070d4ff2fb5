(** Analytic host-device offload cost model.

    The paper's Case 2 measures, on a 24-core cluster with a PGI-accelerator
    GPU, the speedup of [!$acc region copyin(u(1:3,1:5,1:10,1:4))] over
    [copyin(u)] (Table IV).  We have no GPU, so the quantity the experiment
    actually varies — bytes moved across the PCIe link — is modeled
    directly: [time = latency + bytes / bandwidth] per direction, plus a
    kernel term that is identical in both variants.  The *ratio* the paper
    reports depends only on the byte counts our region analysis derives,
    which is the behaviour this substitution preserves (see DESIGN.md). *)

type link = {
  latency_s : float;      (** per-transfer setup cost *)
  bandwidth_bps : float;  (** sustained bytes/second *)
}

val pcie_gen2 : link
(** 2012-era settings: 10 us latency, 6 GB/s sustained. *)

val transfer_time : link -> bytes:int -> float
(** Zero bytes still pays nothing (no transfer issued). *)

type offload = {
  off_bytes_in : int;
  off_bytes_out : int;
  off_kernel_s : float;
}

val offload_time : link -> offload -> float

val region_bytes : elem_size:int -> Regions.Region.t -> int option
(** Bytes a [copyin] of exactly this region moves ([point_count] times the
    element size); [None] when the region is not constant-bounded.
    Strided regions transfer their bounding box (contiguous DMA), matching
    what [copyin(a(lb:ub))] does. *)

val region_box_bytes : elem_size:int -> Regions.Region.t -> int option
(** Bounding-box bytes (strides ignored): what subarray [copyin] moves. *)

val whole_array_bytes : elem_size:int -> extents:int option list -> int option

val speedup : baseline:float -> improved:float -> float

type comparison = {
  cmp_label : string;
  cmp_full_bytes : int;
  cmp_sub_bytes : int;
  cmp_full_time : float;
  cmp_sub_time : float;
  cmp_speedup : float;
}

val compare_copyin :
  ?link:link ->
  ?kernel_s:float ->
  label:string ->
  elem_size:int ->
  extents:int option list ->
  Regions.Region.t ->
  comparison option
(** Full-array copyin versus region-bounding-box copyin for one kernel
    launch. [None] if sizes are not constant. *)
