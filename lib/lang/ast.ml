type language = Fortran | C

type dtype =
  | Int_t
  | Real_t
  | Double_t
  | Char_t
  | Logical_t

let dtype_size = function
  | Int_t -> 4
  | Real_t -> 4
  | Double_t -> 8
  | Char_t -> 1
  | Logical_t -> 4

let dtype_name = function
  | Int_t -> "int"
  | Real_t -> "real"
  | Double_t -> "double"
  | Char_t -> "char"
  | Logical_t -> "logical"

type binop =
  | Add | Sub | Mul | Div | Pow | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

type expr =
  | Int_lit of int
  | Real_lit of float
  | Str_lit of string
  | Logic_lit of bool
  | Var_ref of string * Loc.t
  | Array_ref of string * expr list * Loc.t
  | Coarray_ref of string * expr list * expr * Loc.t
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call_expr of string * expr list * Loc.t

type lvalue =
  | Lvar of string * Loc.t
  | Larr of string * expr list * Loc.t
  | Lcoarr of string * expr list * expr * Loc.t

type stmt =
  | Assign of lvalue * expr * Loc.t
  | If of expr * stmt list * stmt list * Loc.t
  | Do of do_loop
  | While of expr * stmt list * Loc.t
  | Call of string * expr list * Loc.t
  | Return of expr option * Loc.t
  | Print of expr list * Loc.t
  | Nop of Loc.t

and do_loop = {
  do_var : string;
  do_lo : expr;
  do_hi : expr;
  do_step : expr option;
  do_body : stmt list;
  do_loc : Loc.t;
}

type dim = { dim_lo : expr; dim_hi : expr option; dim_assumed_shape : bool }

type decl = {
  decl_name : string;
  decl_type : dtype;
  decl_dims : dim list;
  decl_common : string option;
  decl_coarray : bool;
  decl_loc : Loc.t;
}

type proc_kind = Program | Subroutine | Function of dtype

type proc = {
  proc_name : string;
  proc_kind : proc_kind;
  proc_params : string list;
  proc_decls : decl list;
  proc_consts : (string * expr) list;
  proc_body : stmt list;
  proc_loc : Loc.t;
}

type unit_ = {
  unit_file : string;
  unit_language : language;
  unit_globals : decl list;
  unit_consts : (string * expr) list;
  unit_procs : proc list;
  unit_iprops : (string * Iprop.t) list;
}

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Pow -> "**"
  | Mod -> "mod" | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<="
  | Gt -> ">" | Ge -> ">=" | And -> ".and." | Or -> ".or."

let rec pp_expr ppf = function
  | Int_lit n -> Format.fprintf ppf "%d" n
  | Real_lit f -> Format.fprintf ppf "%g" f
  | Str_lit s -> Format.fprintf ppf "%S" s
  | Logic_lit b -> Format.pp_print_string ppf (if b then ".true." else ".false.")
  | Var_ref (n, _) -> Format.pp_print_string ppf n
  | Array_ref (n, idx, _) ->
    Format.fprintf ppf "%s(%a)" n pp_expr_list idx
  | Coarray_ref (n, idx, img, _) ->
    Format.fprintf ppf "%s(%a)[%a]" n pp_expr_list idx pp_expr img
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Unop (Neg, e) -> Format.fprintf ppf "(-%a)" pp_expr e
  | Unop (Not, e) -> Format.fprintf ppf "(.not. %a)" pp_expr e
  | Call_expr (n, args, _) -> Format.fprintf ppf "%s(%a)" n pp_expr_list args

and pp_expr_list ppf es =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_expr ppf es

let pp_lvalue ppf = function
  | Lvar (n, _) -> Format.pp_print_string ppf n
  | Larr (n, idx, _) -> Format.fprintf ppf "%s(%a)" n pp_expr_list idx
  | Lcoarr (n, idx, img, _) ->
    Format.fprintf ppf "%s(%a)[%a]" n pp_expr_list idx pp_expr img

let rec pp_stmt ppf = function
  | Assign (lv, e, _) -> Format.fprintf ppf "@[%a = %a@]" pp_lvalue lv pp_expr e
  | If (c, t, [], _) ->
    Format.fprintf ppf "@[<v 2>if (%a) then@,%a@]@,end if" pp_expr c pp_body t
  | If (c, t, e, _) ->
    Format.fprintf ppf "@[<v 2>if (%a) then@,%a@]@,@[<v 2>else@,%a@]@,end if"
      pp_expr c pp_body t pp_body e
  | Do d ->
    let pp_step ppf = function
      | None -> ()
      | Some s -> Format.fprintf ppf ", %a" pp_expr s
    in
    Format.fprintf ppf "@[<v 2>do %s = %a, %a%a@,%a@]@,end do" d.do_var
      pp_expr d.do_lo pp_expr d.do_hi pp_step d.do_step pp_body d.do_body
  | While (c, body, _) ->
    Format.fprintf ppf "@[<v 2>do while (%a)@,%a@]@,end do" pp_expr c pp_body body
  | Call (n, args, _) -> Format.fprintf ppf "call %s(%a)" n pp_expr_list args
  | Return (None, _) -> Format.pp_print_string ppf "return"
  | Return (Some e, _) -> Format.fprintf ppf "return %a" pp_expr e
  | Print (es, _) -> Format.fprintf ppf "print *, %a" pp_expr_list es
  | Nop _ -> Format.pp_print_string ppf "continue"

and pp_body ppf stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf stmts
