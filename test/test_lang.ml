open Lang

let fortran_src =
  {|
      program main
      integer, dimension :: a(1:200, 1:200)
      double precision u(5, 65, 65, 64)
      common /cvar/ u
      integer i, j, m
      parameter (m = 10)
c     a comment line
      do j = 1, m
        call p1(a, j)
        call p2(a, j)   ! trailing comment
      end do
      do i = 1, 200, 2
        a(i, 1) = a(i, 1) + mod(i, 3)
      end do
      if (a(1,1) .gt. 0 .and. m .le. 100) then
        a(1, 2) = 0
      else
        a(1, 2) = 1
      end if
      print *, a(1, 1)
      end

      subroutine p1(b, k)
      integer b(1:200, 1:200)
      integer k, i, j
      do i = 1, 100
        do j = 1, 100
          b(i, j) = i + j + k
        end do
      end do
      return
      end

      subroutine p2(b, k)
      integer b(1:200, 1:200)
      integer k, i, j, s
      s = 0
      do i = 101, 200
        do j = 101, 200
          s = s + b(i, j)
        end do
      end do
      end
|}

let c_src =
  {|
#include <stdio.h>
#define N 20

int aarr[N];

void fill(int n) {
  int i;
  for (i = 0; i <= 7; i++) {
    aarr[i] = i * 2;
  }
}

int main() {
  int i, s = 0;
  fill(8);
  for (i = 0; i < 8; i++) {
    s += aarr[i];
  }
  /* strided read */
  for (i = 2; i <= 6; i += 2) {
    s += aarr[i];
  }
  printf("%d\n", s);
  return 0;
}
|}

let parse_f () = Parser_f.parse ~file:"main.f" fortran_src
let parse_c () = Parser_c.parse ~file:"matrix.c" c_src

let find_proc u name =
  match
    List.find_opt (fun p -> String.equal p.Ast.proc_name name) u.Ast.unit_procs
  with
  | Some p -> p
  | None -> Alcotest.failf "procedure %s not found" name

(* The C parser keeps no state between calls: two domains parsing at once
   must each get the serial parse, locals attached to the right procedure *)
let test_c_parse_domains () =
  let reference = parse_c () in
  let parse_many () = List.init 300 (fun _ -> parse_c ()) in
  let other = Domain.spawn parse_many in
  let mine = parse_many () in
  List.iter
    (fun u -> Alcotest.(check bool) "same parse" true (u = reference))
    (mine @ Domain.join other)

let test_f_structure () =
  let u = parse_f () in
  Alcotest.(check int) "three procedures" 3 (List.length u.Ast.unit_procs);
  let main = find_proc u "main" in
  Alcotest.(check bool) "main is program" true (main.Ast.proc_kind = Ast.Program);
  let p1 = find_proc u "p1" in
  Alcotest.(check (list string)) "p1 params" [ "b"; "k" ] p1.Ast.proc_params;
  (* u is in COMMON *)
  let udecl =
    List.find (fun d -> d.Ast.decl_name = "u") main.Ast.proc_decls
  in
  Alcotest.(check (option string)) "common block" (Some "cvar") udecl.Ast.decl_common;
  Alcotest.(check int) "u rank 4" 4 (List.length udecl.Ast.decl_dims)

let test_f_do_loops () =
  let u = parse_f () in
  let main = find_proc u "main" in
  let dos =
    List.filter_map
      (function Ast.Do d -> Some d | _ -> None)
      main.Ast.proc_body
  in
  Alcotest.(check int) "two do loops" 2 (List.length dos);
  let strided = List.nth dos 1 in
  Alcotest.(check bool) "step 2" true
    (match strided.Ast.do_step with Some (Ast.Int_lit 2) -> true | _ -> false)

let test_f_if () =
  let u = parse_f () in
  let main = find_proc u "main" in
  let ifs =
    List.filter_map
      (function Ast.If (c, t, e, _) -> Some (c, t, e) | _ -> None)
      main.Ast.proc_body
  in
  match ifs with
  | [ (Ast.Binop (Ast.And, _, _), [ _ ], [ _ ]) ] -> ()
  | _ -> Alcotest.fail "expected one if with .and. condition and else branch"

(* the tokens of a stream, up to its end *)
let tokens p =
  let rec go acc =
    match Pstate.next p with
    | Token.Eof -> List.rev acc
    | tok -> go (tok :: acc)
  in
  go []

let test_f_dotted_ops () =
  let toks = tokens (Lexer_f.tokenize ~file:"t.f" "x .lt. y .and. a .ne. b\n") in
  let puncts =
    List.filter_map (function Token.Punct p -> Some p | _ -> None) toks
  in
  Alcotest.(check (list string)) "dotted ops" [ "<"; "&&"; "!=" ] puncts

let test_f_double_literal () =
  let toks = tokens (Lexer_f.tokenize ~file:"t.f" "x = 1.5d0 + 2.0e-1\n") in
  let floats =
    List.filter_map (function Token.Float f -> Some f | _ -> None) toks
  in
  Alcotest.(check int) "two floats" 2 (List.length floats);
  Alcotest.(check bool) "d-exponent value" true (List.nth floats 0 = 1.5);
  Alcotest.(check bool) "e-exponent value" true (abs_float (List.nth floats 1 -. 0.2) < 1e-12)

let test_f_continuation () =
  let src = "      x = 1 +   &\n     2\n" in
  let u = Parser_f.parse ~file:"t.f" ("      program t\n      integer x\n" ^ src ^ "      end\n") in
  let main = find_proc u "t" in
  match main.Ast.proc_body with
  | [ Ast.Assign (_, Ast.Binop (Ast.Add, Ast.Int_lit 1, Ast.Int_lit 2), _) ] -> ()
  | _ -> Alcotest.fail "continuation line not joined"

let test_c_structure () =
  let u = parse_c () in
  Alcotest.(check int) "two procs" 2 (List.length u.Ast.unit_procs);
  Alcotest.(check int) "one global" 1 (List.length u.Ast.unit_globals);
  let g = List.hd u.Ast.unit_globals in
  Alcotest.(check string) "global name" "aarr" g.Ast.decl_name;
  (* N resolves via #define at sema time; bounds stay expressions here *)
  Alcotest.(check int) "one const" 1 (List.length u.Ast.unit_consts);
  let main = find_proc u "main" in
  Alcotest.(check bool) "main kind" true (main.Ast.proc_kind = Ast.Program)

let test_c_for_normalization () =
  let u = parse_c () in
  let main = find_proc u "main" in
  let rec count_dos acc = function
    | Ast.Do d -> List.fold_left count_dos (acc + 1) d.Ast.do_body
    | Ast.If (_, t, e, _) ->
      List.fold_left count_dos (List.fold_left count_dos acc t) e
    | Ast.While (_, b, _) -> List.fold_left count_dos acc b
    | _ -> acc
  in
  let n = List.fold_left count_dos 0 main.Ast.proc_body in
  Alcotest.(check int) "both fors normalized to do" 2 n;
  (* the strided one has step 2 and bounds 2..6 *)
  let rec find_strided = function
    | Ast.Do d when d.Ast.do_step <> None -> Some d
    | Ast.Do d -> List.find_map find_strided d.Ast.do_body
    | Ast.If (_, t, e, _) ->
      (match List.find_map find_strided t with
      | Some x -> Some x
      | None -> List.find_map find_strided e)
    | _ -> None
  in
  match List.find_map find_strided main.Ast.proc_body with
  | Some d ->
    Alcotest.(check bool) "lo 2" true (d.Ast.do_lo = Ast.Int_lit 2);
    Alcotest.(check bool) "hi 6" true (d.Ast.do_hi = Ast.Int_lit 6)
  | None -> Alcotest.fail "strided loop not found"

let test_c_compound_assign () =
  let u = parse_c () in
  let main = find_proc u "main" in
  let rec has_s_plus_eq = function
    | Ast.Assign (Ast.Lvar ("s", _), Ast.Binop (Ast.Add, Ast.Var_ref ("s", _), _), _)
      ->
      true
    | Ast.Do d -> List.exists has_s_plus_eq d.Ast.do_body
    | Ast.If (_, t, e, _) ->
      List.exists has_s_plus_eq t || List.exists has_s_plus_eq e
    | _ -> false
  in
  Alcotest.(check bool) "s += desugared" true
    (List.exists has_s_plus_eq main.Ast.proc_body)

let test_sema_fortran () =
  let prog = Frontend.load ~files:[ ("main.f", fortran_src) ] in
  Alcotest.(check int) "3 procs" 3 (List.length prog.Sema.prog_order);
  (* u is global, a is local to main *)
  Alcotest.(check bool) "u global" true
    (Sema.String_map.mem "u" prog.Sema.prog_globals);
  let main = Sema.String_map.find "main" prog.Sema.prog_procs in
  (match Sema.String_map.find "a" main.Sema.pi_symbols with
  | Sema.Sym_array (s, Sema.Local) ->
    Alcotest.(check int) "a rank" 2 (List.length s.Sema.a_dims);
    Alcotest.(check bool) "a bounds" true
      (s.Sema.a_dims = [ (Some 1, Some 200); (Some 1, Some 200) ])
  | _ -> Alcotest.fail "a should be a local array");
  (* m folded *)
  (match Sema.String_map.find "m" main.Sema.pi_symbols with
  | Sema.Sym_const 10 -> ()
  | _ -> Alcotest.fail "m should fold to 10");
  (* mod(i, 3) rewritten to a call *)
  let p = main.Sema.pi_proc in
  let rec has_mod_call = function
    | Ast.Assign (_, e, _) -> expr_has e
    | Ast.Do d -> List.exists has_mod_call d.Ast.do_body
    | Ast.If (_, t, e, _) ->
      List.exists has_mod_call t || List.exists has_mod_call e
    | _ -> false
  and expr_has = function
    | Ast.Call_expr ("mod", _, _) -> true
    | Ast.Binop (_, a, b) -> expr_has a || expr_has b
    | Ast.Unop (_, e) -> expr_has e
    | Ast.Array_ref (_, idx, _) -> List.exists expr_has idx
    | _ -> false
  in
  Alcotest.(check bool) "mod is a call" true
    (List.exists has_mod_call p.Ast.proc_body)

let test_sema_formal_class () =
  let prog = Frontend.load ~files:[ ("main.f", fortran_src) ] in
  let p1 = Sema.String_map.find "p1" prog.Sema.prog_procs in
  match Sema.String_map.find "b" p1.Sema.pi_symbols with
  | Sema.Sym_array (_, Sema.Formal) -> ()
  | _ -> Alcotest.fail "b should be a formal array"

let test_sema_c_define () =
  let prog = Frontend.load ~files:[ ("matrix.c", c_src) ] in
  match Sema.String_map.find_opt "aarr" prog.Sema.prog_globals with
  | Some (s, _) ->
    Alcotest.(check bool) "aarr bounds 0..19" true
      (s.Sema.a_dims = [ (Some 0, Some 19) ])
  | None -> Alcotest.fail "aarr should be global"

let test_sema_rank_error () =
  let bad =
    "      program t\n      integer a(5, 5)\n      a(1) = 0\n      end\n"
  in
  Alcotest.check_raises "rank mismatch"
    (Diag.Frontend_error
       {
         Diag.severity = Diag.Error;
         loc = Loc.make ~file:"t.f" ~line:3 ~col:7;
         message = "array a has rank 2 but is indexed with 1 subscripts";
       })
    (fun () -> ignore (Frontend.load ~files:[ ("t.f", bad) ]))

let test_sema_undeclared_c () =
  let bad = "int main() { x = 1; return 0; }\n" in
  (try
     ignore (Frontend.load ~files:[ ("t.c", bad) ]);
     Alcotest.fail "expected undeclared identifier error"
   with Diag.Frontend_error d ->
     Alcotest.(check bool) "mentions x" true
       (String.length d.Diag.message > 0))

let test_write_statement () =
  let src =
    "      program t\n      integer x\n      x = 3\n      write (*, *) x, x + 1\n      write (*, *)\n      end\n"
  in
  let u = Parser_f.parse ~file:"t.f" src in
  let main = find_proc u "t" in
  let prints =
    List.filter (function Ast.Print _ -> true | _ -> false) main.Ast.proc_body
  in
  Alcotest.(check int) "two writes as prints" 2 (List.length prints);
  match List.hd prints with
  | Ast.Print (args, _) -> Alcotest.(check int) "two items" 2 (List.length args)
  | _ -> Alcotest.fail "unexpected"

let test_object_name () =
  let prog = Frontend.load ~files:[ ("main.f", fortran_src) ] in
  let main = Sema.String_map.find "main" prog.Sema.prog_procs in
  Alcotest.(check string) "object" "main.o" main.Sema.pi_object

(* ---- the array-backed lexers against the list-building reference ---- *)

(* a parse's outcome: its AST, its diagnostic, or any other exception *)
type outcome = Parsed of Ast.unit_ | Diagnosed of Diag.t | Raised of string

let outcome f =
  match f () with
  | ast -> Parsed ast
  | exception Diag.Frontend_error d -> Diagnosed d
  | exception e -> Raised (Printexc.to_string e)

let parse_both ~file src =
  let c = Filename.check_suffix file ".c" in
  let prod =
    outcome (fun () ->
        if c then Parser_c.parse ~file src else Parser_f.parse ~file src)
  in
  let reference =
    outcome (fun () ->
        if c then
          Parser_c.parse_tokens ~file src
            (Oracle.stream ~file (Oracle.Lexer_c.tokenize ~file src))
        else
          Parser_f.parse_tokens ~file src
            (Oracle.stream ~file (Oracle.Lexer_f.tokenize ~file src)))
  in
  (prod, reference)

let describe = function
  | Parsed u -> Printf.sprintf "parsed (%d procedures)" (List.length u.Ast.unit_procs)
  | Diagnosed d -> Diag.to_string d
  | Raised e -> "raised " ^ e

let corpus_sources () =
  Corpus.Nas_lu.files ()
  @ Corpus.Gen.generate Corpus.Gen.default
  @ [ Corpus.Small.matrix_c; Corpus.Small.fig1_f; Corpus.Small.stride_f ]

let test_lexers_match_reference () =
  List.iter
    (fun (file, src) ->
      match parse_both ~file src with
      | Parsed a, Parsed b ->
        (* polymorphic equality: every location and literal included *)
        Alcotest.(check bool) (file ^ ": same AST") true (a = b)
      | prod, reference ->
        Alcotest.failf "%s: production %s, reference %s" file (describe prod)
          (describe reference))
    (corpus_sources ())

(* One edit of a source: at [pos] (taken modulo its length), drop [del]
   bytes and insert [ins]. *)
let fragments =
  [ "("; ")"; "."; ".lt."; ".and"; ".true."; ".x."; "&"; "&\n"; "\n"; "\n\n";
    "'"; "\""; "''"; "/*"; "*/"; "//"; "!"; "c "; "\nc x\n"; "*"; "**"; "#";
    "#define M 3\n"; "="; "=="; "/="; "::"; ","; ";"; "{"; "}"; "["; "]";
    " "; "\t"; "x"; "A1"; "do"; "end"; "if"; "then"; "1"; "1.5d0"; "2.e-1";
    "1e"; "3f"; "0.5"; "9999999999999999999"; "$"; "@"; "\\" ]

let gen_mutated =
  let open QCheck2.Gen in
  let sources =
    Array.of_list
      [ Corpus.Small.matrix_c; Corpus.Small.fig1_f; Corpus.Small.stride_f;
        List.hd (Corpus.Gen.generate Corpus.Gen.default);
        List.nth (Corpus.Nas_lu.files ()) 1 ]
  in
  let edit = triple nat (int_range 0 3) (oneofl fragments) in
  let* k = int_range 0 (Array.length sources - 1) in
  let* edits = list_size (int_range 1 4) edit in
  let file, src = sources.(k) in
  let apply src (pos, del, ins) =
    let n = String.length src in
    let pos = if n = 0 then 0 else pos mod n in
    let del = min del (n - pos) in
    String.sub src 0 pos ^ ins ^ String.sub src (pos + del) (n - pos - del)
  in
  return (file, List.fold_left apply src edits)

let prop_mutated_sources =
  QCheck2.Test.make ~name:"mutated sources: production = reference lexer"
    ~count:300 gen_mutated
    ~print:(fun (file, src) -> file ^ ":\n" ^ src)
    (fun (file, src) ->
      match parse_both ~file src with
      | Parsed a, Parsed b -> a = b
      | Diagnosed a, Diagnosed b ->
        Loc.equal a.Diag.loc b.Diag.loc
        && String.equal a.Diag.message b.Diag.message
      | Raised a, Raised b -> String.equal a b
      | prod, reference ->
        QCheck2.Test.fail_reportf "production %s, reference %s"
          (describe prod) (describe reference))

let suite =
  [
    Alcotest.test_case "fortran structure" `Quick test_f_structure;
    Alcotest.test_case "fortran do loops" `Quick test_f_do_loops;
    Alcotest.test_case "fortran if/else" `Quick test_f_if;
    Alcotest.test_case "fortran dotted ops" `Quick test_f_dotted_ops;
    Alcotest.test_case "fortran double literals" `Quick test_f_double_literal;
    Alcotest.test_case "fortran continuation" `Quick test_f_continuation;
    Alcotest.test_case "c structure" `Quick test_c_structure;
    Alcotest.test_case "c for normalization" `Quick test_c_for_normalization;
    Alcotest.test_case "c compound assignment" `Quick test_c_compound_assign;
    Alcotest.test_case "c parse on two domains at once" `Quick
      test_c_parse_domains;
    Alcotest.test_case "sema fortran" `Quick test_sema_fortran;
    Alcotest.test_case "sema formal class" `Quick test_sema_formal_class;
    Alcotest.test_case "sema c defines" `Quick test_sema_c_define;
    Alcotest.test_case "sema rank error" `Quick test_sema_rank_error;
    Alcotest.test_case "sema undeclared (C)" `Quick test_sema_undeclared_c;
    Alcotest.test_case "write statement" `Quick test_write_statement;
    Alcotest.test_case "object naming" `Quick test_object_name;
    Alcotest.test_case "corpora: lexers = reference lexers" `Quick
      test_lexers_match_reference;
    QCheck_alcotest.to_alcotest prop_mutated_sources;
  ]
