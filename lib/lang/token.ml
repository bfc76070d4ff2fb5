type t =
  | Ident of string
  | Int of int
  | Float of float
  | String of string
  | Logic of bool
  | Punct of string
  | Newline
  | Eof

let equal a b =
  match a, b with
  | Ident x, Ident y | String x, String y | Punct x, Punct y -> String.equal x y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Logic x, Logic y -> x = y
  | Newline, Newline | Eof, Eof -> true
  | (Ident _ | Int _ | Float _ | String _ | Logic _ | Punct _ | Newline | Eof), _
    ->
    false

let pp ppf = function
  | Ident s -> Format.fprintf ppf "identifier %S" s
  | Int n -> Format.fprintf ppf "integer %d" n
  | Float f -> Format.fprintf ppf "float %g" f
  | String s -> Format.fprintf ppf "string %S" s
  | Logic b -> Format.fprintf ppf "logical %b" b
  | Punct s -> Format.fprintf ppf "%S" s
  | Newline -> Format.pp_print_string ppf "end of line"
  | Eof -> Format.pp_print_string ppf "end of file"

let to_string t = Format.asprintf "%a" pp t
