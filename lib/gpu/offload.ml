open Regions

type link = {
  latency_s : float;
  bandwidth_bps : float;
}

let pcie_gen2 = { latency_s = 10e-6; bandwidth_bps = 6e9 }

let transfer_time link ~bytes =
  if bytes <= 0 then 0.0
  else link.latency_s +. (float_of_int bytes /. link.bandwidth_bps)

type offload = {
  off_bytes_in : int;
  off_bytes_out : int;
  off_kernel_s : float;
}

let offload_time link o =
  transfer_time link ~bytes:o.off_bytes_in
  +. o.off_kernel_s
  +. transfer_time link ~bytes:o.off_bytes_out

let region_bytes ~elem_size region =
  Option.map (fun n -> n * elem_size) (Region.point_count region)

let dim_box d =
  match d.Region.lb, d.Region.ub with
  | Region.Bconst l, Region.Bconst u when u >= l -> Some (u - l + 1)
  | _ -> None

let region_box_bytes ~elem_size region =
  List.fold_left
    (fun acc d ->
      match acc, dim_box d with
      | Some a, Some b -> Some (a * b)
      | _ -> None)
    (Some 1) (Region.dim_list region)
  |> Option.map (fun n -> n * elem_size)

let whole_array_bytes ~elem_size ~extents =
  List.fold_left
    (fun acc e ->
      match acc, e with Some a, Some b -> Some (a * b) | _ -> None)
    (Some 1) extents
  |> Option.map (fun n -> n * elem_size)

let speedup ~baseline ~improved =
  if improved <= 0.0 then infinity else baseline /. improved

type comparison = {
  cmp_label : string;
  cmp_full_bytes : int;
  cmp_sub_bytes : int;
  cmp_full_time : float;
  cmp_sub_time : float;
  cmp_speedup : float;
}

let compare_copyin ?(link = pcie_gen2) ?(kernel_s = 0.0) ~label ~elem_size
    ~extents region =
  match
    ( whole_array_bytes ~elem_size ~extents,
      region_box_bytes ~elem_size region )
  with
  | Some full, Some sub ->
    let full_time =
      offload_time link
        { off_bytes_in = full; off_bytes_out = 0; off_kernel_s = kernel_s }
    in
    let sub_time =
      offload_time link
        { off_bytes_in = sub; off_bytes_out = 0; off_kernel_s = kernel_s }
    in
    Some
      {
        cmp_label = label;
        cmp_full_bytes = full;
        cmp_sub_bytes = sub;
        cmp_full_time = full_time;
        cmp_sub_time = sub_time;
        cmp_speedup = speedup ~baseline:full_time ~improved:sub_time;
      }
  | _ -> None
