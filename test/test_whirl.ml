open Whirl

let lower_src files = Lower.lower (Lang.Frontend.load ~files)

let fortran_2d =
  ( "t.f",
    {|      program t
      double precision u(5, 65, 65, 64)
      common /cv/ u
      integer i, j, k, m
      do k = 1, 3
        do j = 1, 5
          do i = 1, 10
            do m = 1, 4
              u(m, i, j, k) = 1.0d0
            end do
          end do
        end do
      end do
      end
|} )

let c_2d =
  ( "t.c",
    {|double g[10][20];
void f(int n) {
  int i, j;
  for (i = 0; i < 10; i++) {
    for (j = 0; j < 20; j++) {
      g[i][j] = n;
    }
  }
}
int main() { f(3); return 0; }
|} )

let find_array_node pu =
  let found = ref None in
  Wn.preorder
    (fun w -> if w.Wn.operator = Wn.OPR_ARRAY && !found = None then found := Some w)
    (Ir.body pu);
  Option.get !found

let test_array_convention_fortran () =
  let m = lower_src [ fortran_2d ] in
  let pu = Option.get (Ir.find_pu m "t") in
  let arr = find_array_node pu in
  (* u(m,i,j,k) with u(5,65,65,64): row-major means kid order reverses *)
  Alcotest.(check int) "num_dim from kid_count >> 1" 4 (Wn.num_dim arr);
  Alcotest.(check int) "kid_count = 1 + 2n" 9 (Wn.kid_count arr);
  Alcotest.(check int) "elem size 8" 8 arr.Wn.elem_size;
  let dims = List.init 4 (fun k -> (Wn.array_dim arr k).Wn.const_val) in
  Alcotest.(check (list int)) "row-major extents" [ 64; 65; 65; 5 ] dims;
  (* index 0 corresponds to the last Fortran subscript k, zero-based *)
  let idx0 = Wn.array_index arr 0 in
  Alcotest.(check bool) "index is (k - 1)" true
    (idx0.Wn.operator = Wn.OPR_SUB
    && (Wn.kid idx0 1).Wn.operator = Wn.OPR_INTCONST
    && (Wn.kid idx0 1).Wn.const_val = 1)

let test_array_convention_c () =
  let m = lower_src [ c_2d ] in
  let pu = Option.get (Ir.find_pu m "f") in
  let arr = find_array_node pu in
  Alcotest.(check int) "rank 2" 2 (Wn.num_dim arr);
  let dims = List.init 2 (fun k -> (Wn.array_dim arr k).Wn.const_val) in
  (* C is already row-major: declaration order preserved *)
  Alcotest.(check (list int)) "extents" [ 10; 20 ] dims;
  (* zero-based already: the index expression is the plain LDID *)
  let idx0 = Wn.array_index arr 0 in
  Alcotest.(check bool) "no shift" true (idx0.Wn.operator = Wn.OPR_LDID)

let test_global_symbol_shared () =
  let m = lower_src [ fortran_2d ] in
  let pu = Option.get (Ir.find_pu m "t") in
  let arr = find_array_node pu in
  let base = Wn.array_base arr in
  Alcotest.(check bool) "base is LDA" true (base.Wn.operator = Wn.OPR_LDA);
  Alcotest.(check bool) "global-encoded" true (Ir.is_global_idx base.Wn.st_idx);
  Alcotest.(check string) "name" "u" (Ir.st_name m pu base.Wn.st_idx)

let test_symtab_interning () =
  let st = Symtab.create () in
  let t1 = Symtab.intern_ty st (Symtab.Ty_scalar Lang.Ast.Int_t) in
  let t2 = Symtab.intern_ty st (Symtab.Ty_scalar Lang.Ast.Int_t) in
  let t3 = Symtab.intern_ty st (Symtab.Ty_scalar Lang.Ast.Double_t) in
  Alcotest.(check int) "same kind same idx" t1 t2;
  Alcotest.(check bool) "different kind" true (t1 <> t3);
  let arr =
    Symtab.intern_ty st
      (Symtab.Ty_array
         { elem = Lang.Ast.Double_t; dims = [ (Some 1, Some 10) ];
           contiguous = true })
  in
  Alcotest.(check int) "elem size" 8 (Symtab.elem_size st arr);
  Alcotest.(check int) "total" 10 (Symtab.total_elems st arr);
  Alcotest.(check int) "bytes" 80 (Symtab.size_bytes st arr)

let test_variable_length_zero () =
  let st = Symtab.create () in
  let arr =
    Symtab.intern_ty st
      (Symtab.Ty_array
         { elem = Lang.Ast.Real_t; dims = [ (Some 1, None); (Some 1, Some 5) ];
           contiguous = true })
  in
  Alcotest.(check int) "unknown extent -> 0 total" 0 (Symtab.total_elems st arr);
  Alcotest.(check int) "0 bytes" 0 (Symtab.size_bytes st arr)

let test_layout_deterministic () =
  let m1 = lower_src [ fortran_2d ] in
  let m2 = lower_src [ fortran_2d ] in
  Layout.assign m1;
  Layout.assign m2;
  let addr m =
    let idx = Option.get (Symtab.find_st m.Ir.m_global "u") in
    (Symtab.st m.Ir.m_global idx).Symtab.st_mem_loc
  in
  Alcotest.(check int) "same address across runs" (addr m1) (addr m2);
  Alcotest.(check bool) "16-aligned" true (addr m1 mod 16 = 0)

let test_wn_counts () =
  let m = lower_src [ fortran_2d ] in
  let pu = Option.get (Ir.find_pu m "t") in
  let loops = Wn.count (fun w -> w.Wn.operator = Wn.OPR_DO_LOOP) (Ir.body pu) in
  Alcotest.(check int) "4 nested loops" 4 loops;
  let stores = Wn.count (fun w -> w.Wn.operator = Wn.OPR_ISTORE) (Ir.body pu) in
  Alcotest.(check int) "1 store" 1 stores

let test_address_formula_docs () =
  (* address = base + z * sum_i (y_i * prod_{j>i} h_j): check via a concrete
     computation mirrored by the interpreter's flat index *)
  let dims = [| 64; 65; 65; 5 |] in
  let coords = [| 2; 4; 9; 3 |] in
  let flat = ref 0 in
  Array.iteri (fun k y -> flat := (!flat * dims.(k)) + y) coords;
  (* manual expansion *)
  let expected =
    (2 * 65 * 65 * 5) + (4 * 65 * 5) + (9 * 5) + 3
  in
  Alcotest.(check int) "row-major flattening" expected !flat

let test_whirl2src_roundtrip_text () =
  let m = lower_src [ fortran_2d ] in
  let s = Whirl2src.module_to_string m in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "subscripts back in source order" true
    (contains "u(m, i, j, k)");
  Alcotest.(check bool) "do loop rendered" true (contains "do k = 1, 3")

let suite =
  [
    Alcotest.test_case "ARRAY convention (Fortran)" `Quick test_array_convention_fortran;
    Alcotest.test_case "ARRAY convention (C)" `Quick test_array_convention_c;
    Alcotest.test_case "global symbols shared" `Quick test_global_symbol_shared;
    Alcotest.test_case "symtab interning" `Quick test_symtab_interning;
    Alcotest.test_case "variable-length size 0" `Quick test_variable_length_zero;
    Alcotest.test_case "layout deterministic" `Quick test_layout_deterministic;
    Alcotest.test_case "WN counting" `Quick test_wn_counts;
    Alcotest.test_case "address formula" `Quick test_address_formula_docs;
    Alcotest.test_case "whirl2src restores source view" `Quick test_whirl2src_roundtrip_text;
  ]
