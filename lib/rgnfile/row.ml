type t = {
  scope : string;
  array : string;
  file : string;
  mode : string;
  references : int;
  dimensions : int;
  lb : string;
  ub : string;
  stride : string;
  element_size : int;
  data_type : string;
  dim_size : string;
  tot_size : int;
  size_bytes : int;
  mem_loc : string;
  acc_density : int;
  line : int;
  props : string;
}

let density ~references ~size_bytes =
  if size_bytes <= 0 then 0 else references * 100 / size_bytes

let header =
  [
    "Scope"; "Array"; "File"; "Mode"; "References"; "Dimensions"; "LB"; "UB";
    "Stride"; "Element_size"; "Data_type"; "Dim_size"; "Tot_size";
    "Size_bytes"; "Mem_Loc"; "Acc_density"; "Line"; "Props";
  ]

let legacy_header = List.filter (fun h -> h <> "Props") header

let valid_props s =
  s <> "" && String.for_all (fun c -> c = '-' || c = 'b' || c = 'm' || c = 'i') s

let to_fields t =
  [
    t.scope; t.array; t.file; t.mode;
    string_of_int t.references;
    string_of_int t.dimensions;
    t.lb; t.ub; t.stride;
    string_of_int t.element_size;
    t.data_type; t.dim_size;
    string_of_int t.tot_size;
    string_of_int t.size_bytes;
    t.mem_loc;
    string_of_int t.acc_density;
    string_of_int t.line;
    t.props;
  ]

(* [Csv.add_record buf (to_fields t)] without the field list *)
let add_record buf t =
  let str f =
    Csv.add_field buf f;
    Buffer.add_char buf ','
  and int n =
    Csv.add_int buf n;
    Buffer.add_char buf ','
  in
  str t.scope;
  str t.array;
  str t.file;
  str t.mode;
  int t.references;
  int t.dimensions;
  str t.lb;
  str t.ub;
  str t.stride;
  int t.element_size;
  str t.data_type;
  str t.dim_size;
  int t.tot_size;
  int t.size_bytes;
  str t.mem_loc;
  int t.acc_density;
  int t.line;
  Csv.add_field buf t.props;
  Buffer.add_char buf '\n'

let int_field name s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "field %s: %S is not an integer" name s)

let ( let* ) = Result.bind

let of_fields fields =
  match fields with
  | [
      scope; array; file; mode; references; dimensions; lb; ub; stride;
      element_size; data_type; dim_size; tot_size; size_bytes; mem_loc;
      acc_density; line;
    ]
  | [
      scope; array; file; mode; references; dimensions; lb; ub; stride;
      element_size; data_type; dim_size; tot_size; size_bytes; mem_loc;
      acc_density; line; _;
    ] ->
    let props =
      match List.nth_opt fields 17 with Some p -> p | None -> "-"
    in
    let* references = int_field "References" references in
    let* dimensions = int_field "Dimensions" dimensions in
    let* element_size = int_field "Element_size" element_size in
    let* tot_size = int_field "Tot_size" tot_size in
    let* size_bytes = int_field "Size_bytes" size_bytes in
    let* acc_density = int_field "Acc_density" acc_density in
    let* line = int_field "Line" line in
    (* an unreadable Props token means the region columns leaned on
       assertions this reader does not understand: degrade them to unknown
       rather than repeat bounds we cannot justify *)
    let lb, ub, stride, props =
      if valid_props props then (lb, ub, stride, props)
      else ("*", "*", "*", "-")
    in
    Ok
      {
        scope; array; file; mode; references; dimensions; lb; ub; stride;
        element_size; data_type; dim_size; tot_size; size_bytes; mem_loc;
        acc_density; line; props;
      }
  | fields ->
    Error
      (Printf.sprintf "expected %d fields, got %d" (List.length header)
         (List.length fields))

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "%s %s %s %s refs=%d dims=%d [%s:%s:%s] %s %d bytes @%s d=%d"
    t.scope t.array t.file t.mode t.references t.dimensions t.lb t.ub t.stride
    t.data_type t.size_bytes t.mem_loc t.acc_density
