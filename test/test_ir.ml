(* Tests for IR lowering and the reference interpreter. *)

let lower ?bindings src =
  let prog = Minic.Parser.parse_string src in
  ignore (Minic.Sema.analyze ?bindings prog);
  Ir_lower.lower_program ?bindings prog

let find_fn m name =
  match List.find_opt (fun f -> f.Ir.fn_name = name) m.Ir.m_funcs with
  | Some f -> f
  | None -> Alcotest.failf "function %s not lowered" name

(* Run a function and return the integer result. *)
let run_int ?(seed = 0) m name =
  let st = Ir_interp.init_state ~seed m in
  match Ir_interp.run_func st (find_fn m name) () with
  | Some (Ir_interp.VI i) -> Int64.to_int i
  | Some (Ir_interp.VF f) -> int_of_float f
  | _ -> Alcotest.failf "%s did not return an int" name

let run_float ?(seed = 0) m name =
  let st = Ir_interp.init_state ~seed m in
  match Ir_interp.run_func st (find_fn m name) () with
  | Some (Ir_interp.VF f) -> f
  | Some (Ir_interp.VI i) -> Int64.to_float i
  | _ -> Alcotest.failf "%s did not return a float" name

(* ------------------------------------------------------------------ *)
(* Basic expression lowering                                            *)
(* ------------------------------------------------------------------ *)

let test_return_constant () =
  let m = lower "int f() { return 42; }" in
  Alcotest.(check int) "42" 42 (run_int m "f")

let test_arith () =
  let m = lower "int f() { return (3 + 4) * 5 - 6 / 2; }" in
  Alcotest.(check int) "arith" 32 (run_int m "f")

let test_precedence_semantics () =
  let m = lower "int f() { return 2 + 3 * 4; }" in
  Alcotest.(check int) "2+3*4" 14 (run_int m "f")

let test_locals_and_assign () =
  let m = lower "int f() { int a = 5; int b; b = a * 2; a = b + 1; return a; }" in
  Alcotest.(check int) "locals" 11 (run_int m "f")

let test_ternary () =
  let m = lower "int f() { int x = 7; return x > 5 ? 100 : 200; }" in
  Alcotest.(check int) "ternary" 100 (run_int m "f")

let test_comparison_produces_01 () =
  let m = lower "int f() { return (3 < 5) + (5 < 3); }" in
  Alcotest.(check int) "bool arith" 1 (run_int m "f")

let test_logical_ops () =
  let m = lower "int f() { return (1 && 2) + (0 || 0) + (3 || 0); }" in
  Alcotest.(check int) "logical" 2 (run_int m "f")

let test_bitwise () =
  let m = lower "int f() { return (12 & 10) | (1 << 4) ^ 3; }" in
  (* (12&10)=8; (1<<4)=16; 16^3=19; 8|19=27 *)
  Alcotest.(check int) "bitwise" 27 (run_int m "f")

let test_shifts_and_rem () =
  let m = lower "int f() { return (100 >> 2) + (100 % 7); }" in
  Alcotest.(check int) "shift/rem" 27 (run_int m "f")

let test_postinc_value () =
  let m = lower "int f() { int i = 5; int j = i++; return j * 10 + i; }" in
  Alcotest.(check int) "post-inc" 56 (run_int m "f")

let test_preinc_value () =
  let m = lower "int f() { int i = 5; int j = ++i; return j * 10 + i; }" in
  Alcotest.(check int) "pre-inc" 66 (run_int m "f")

let test_char_wrapping () =
  let m = lower "int f() { char c = 200; return (int) c; }" in
  Alcotest.(check int) "char wraps to signed" (200 - 256) (run_int m "f")

let test_short_wrapping () =
  let m = lower "int f() { short s = 40000; return (int) s; }" in
  Alcotest.(check int) "short wraps" (40000 - 65536) (run_int m "f")

let test_float_arith () =
  let m = lower "double f() { double x = 1.5; return x * 4.0 + 0.25; }" in
  Alcotest.(check (float 1e-9)) "float arith" 6.25 (run_float m "f")

let test_int_float_conversion () =
  let m = lower "int f() { float x = 7.9; return (int) x; }" in
  Alcotest.(check int) "f->i truncates" 7 (run_int m "f")

let test_f32_rounding () =
  (* 0.1 is not representable; float (F32) arithmetic must round *)
  let m = lower "double f() { float x = 0.1; return (double) x; }" in
  let f = run_float m "f" in
  Alcotest.(check bool) "rounded through f32" true
    (abs_float (f -. 0.1) > 0.0 && abs_float (f -. 0.1) < 1e-7)

let test_division_by_zero_is_zero () =
  let m = lower "int f() { int z = 0; return 5 / z; }" in
  Alcotest.(check int) "x/0 = 0 (documented)" 0 (run_int m "f")

let test_call_builtin () =
  let m = lower "double f() { return sqrt(16.0); }" in
  Alcotest.(check (float 1e-9)) "sqrt" 4.0 (run_float m "f")

(* ------------------------------------------------------------------ *)
(* Arrays and memory                                                    *)
(* ------------------------------------------------------------------ *)

let test_array_store_load () =
  let m = lower "int a[16]; int f() { a[3] = 77; return a[3]; }" in
  Alcotest.(check int) "store/load" 77 (run_int m "f")

let test_multidim_linearize () =
  let m =
    lower
      "int g[4][8]; int f() { g[2][5] = 9; g[0][0] = 1; return g[2][5] * 10 + g[0][0]; }"
  in
  Alcotest.(check int) "2d indexing" 91 (run_int m "f")

let test_multidim_rowmajor () =
  (* g[1][0] and g[0][8] must NOT alias differently: row-major layout means
     g[i][j] = base + i*8 + j, so g[1][0] == element 8 *)
  let m =
    lower "int g[2][8]; int f() { g[1][0] = 5; return g[0][0]; }"
  in
  let st = Ir_interp.init_state m in
  ignore (Ir_interp.run_func st (find_fn m "f") ());
  (match Hashtbl.find st.Ir_interp.mem "g" with
  | Ir_interp.MI a -> Alcotest.(check int64) "element 8" 5L a.(8)
  | _ -> Alcotest.fail "expected int memory")

let test_local_array () =
  let m = lower "int f() { int t[4]; t[0] = 3; t[1] = t[0] * 2; return t[1]; }" in
  Alcotest.(check int) "local array" 6 (run_int m "f")

let test_global_scalar () =
  let m = lower "int gcount; int f() { gcount = 5; gcount = gcount + 2; return gcount; }" in
  Alcotest.(check int) "global scalar" 7 (run_int m "f")

let test_deterministic_init () =
  let m = lower "int a[64]; int f() { return a[10]; }" in
  let v1 = run_int ~seed:3 m "f" and v2 = run_int ~seed:3 m "f" in
  let v3 = run_int ~seed:4 m "f" in
  Alcotest.(check int) "same seed same data" v1 v2;
  Alcotest.(check bool) "init values are small" true (v1 >= 0 && v1 < 256);
  ignore v3

let test_oob_traps () =
  let m = lower "int a[4]; int f() { return a[9]; }" in
  match run_int m "f" with
  | exception Ir_interp.Trap _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds trap"

(* ------------------------------------------------------------------ *)
(* Control flow                                                         *)
(* ------------------------------------------------------------------ *)

let test_if_else () =
  let m =
    lower "int f() { int x = 3; if (x > 10) return 1; else return 2; }"
  in
  Alcotest.(check int) "else branch" 2 (run_int m "f")

let test_counted_loop () =
  let m = lower "int f() { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }" in
  Alcotest.(check int) "sum 0..9" 45 (run_int m "f")

let test_counted_loop_canonical () =
  let m = lower "int f() { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }" in
  let fn = find_fn m "f" in
  Alcotest.(check int) "one counted loop" 1 (List.length (Ir.func_loops fn))

let test_loop_step2 () =
  let m = lower "int f() { int s = 0; int i; for (i = 0; i < 10; i += 2) s += i; return s; }" in
  Alcotest.(check int) "sum evens" 20 (run_int m "f")

let test_loop_downward () =
  let m = lower "int f() { int s = 0; int i; for (i = 9; i >= 0; i--) s += i; return s; }" in
  Alcotest.(check int) "downward" 45 (run_int m "f")

let test_loop_decl_induction () =
  let m = lower "int f() { int s = 0; for (int i = 1; i <= 5; i++) s += i; return s; }" in
  Alcotest.(check int) "decl induction" 15 (run_int m "f")

let test_nested_loops () =
  let m =
    lower
      "int f() { int s = 0; int i; int j;\n\
       for (i = 0; i < 4; i++) for (j = 0; j < 4; j++) s += i * j;\n\
       return s; }"
  in
  Alcotest.(check int) "nested" 36 (run_int m "f")

let test_while_loop () =
  let m = lower "int f() { int i = 0; int s = 0; while (i < 5) { s += i; i++; } return s; }" in
  Alcotest.(check int) "while" 10 (run_int m "f")

let test_break () =
  let m =
    lower
      "int f() { int s = 0; int i; for (i = 0; i < 100; i++) { if (i == 5) break; s += i; } return s; }"
  in
  Alcotest.(check int) "break at 5" 10 (run_int m "f")

let test_continue () =
  let m =
    lower
      "int f() { int s = 0; int i; for (i = 0; i < 6; i++) { if (i % 2) continue; s += i; } return s; }"
  in
  Alcotest.(check int) "skip odds" 6 (run_int m "f")

let test_noncanonical_becomes_while () =
  (* bound mutated inside the body -> must not be canonicalized *)
  let m =
    lower
      "int f() { int n = 10; int s = 0; int i;\n\
       for (i = 0; i < n; i++) { s += 1; if (s == 3) n = 5; }\n\
       return s; }"
  in
  let fn = find_fn m "f" in
  Alcotest.(check int) "no counted loops" 0 (List.length (Ir.func_loops fn));
  Alcotest.(check int) "semantics preserved" 5 (run_int m "f")

let test_symbolic_bound () =
  let m =
    lower ~bindings:[ ("N", 8) ]
      "int a[N]; int f() { int s = 0; int i; for (i = 0; i < N; i++) { a[i] = i; s += a[i]; } return s; }"
  in
  Alcotest.(check int) "sum with binding" 28 (run_int m "f")

(* ------------------------------------------------------------------ *)
(* Paper examples execute end to end                                    *)
(* ------------------------------------------------------------------ *)

let test_paper_example1_runs () =
  let src =
    "int assign1[1024]; short short_a[1024];\n\
     int f() { int i;\n\
     for (i = 0; i < 1023; i+=2) { assign1[i] = (int) short_a[i]; assign1[i+1] = (int) short_a[i+1]; }\n\
     return assign1[100]; }"
  in
  let m = lower src in
  let v = run_int m "f" in
  Alcotest.(check bool) "copied value in range" true (v >= -32768 && v < 32768)

let test_paper_example4_gemm () =
  let src =
    "float A[8][8]; float B[8][8]; float C[8][8];\n\
     float f(float alpha) { int i; int j; int k;\n\
     for (i = 0; i < 8; i++){ for (j = 0; j < 8; j++){ float sum = 0;\n\
     for (k = 0; k < 8; k++) { sum += alpha*A[i][k] * B[k][j]; } C[i][j] = sum; } }\n\
     return C[3][4]; }"
  in
  let m = lower src in
  let fn = find_fn m "f" in
  Alcotest.(check int) "three loops" 3 (List.length (Ir.func_loops fn));
  Alcotest.(check int) "one innermost" 1 (List.length (Ir.innermost_loops fn));
  let v = run_float m "f" in
  Alcotest.(check bool) "gemm produced a finite value" true (Float.is_finite v)

(* ------------------------------------------------------------------ *)
(* Vector instruction semantics (hand-built IR)                         *)
(* ------------------------------------------------------------------ *)

let test_vector_ops_semantics () =
  (* build: load <4 x i32> a[0], add splat(10), store to b *)
  let m = lower "int a[8]; int b[8]; int f() { return 0; }" in
  let fn = find_fn m "f" in
  let vty = Ir.Vec (4, Ir.I32) in
  let rv = Ir.fresh_reg fn vty in
  let rs = Ir.fresh_reg fn vty in
  let radd = Ir.fresh_reg fn vty in
  let body =
    [ Ir.Block
        [ Ir.Def (rv, Ir.Load (vty, { Ir.base = "a"; index = Ir.IConst 0L;
                                      stride = 1; mask = None }));
          Ir.Def (rs, Ir.Splat (vty, Ir.IConst 10L));
          Ir.Def (radd, Ir.IBin (Ir.Add, vty, Ir.Reg rv, Ir.Reg rs));
          Ir.Store (vty, { Ir.base = "b"; index = Ir.IConst 0L; stride = 1;
                           mask = None }, Ir.Reg radd) ];
      Ir.Return None ]
  in
  fn.Ir.fn_body <- body;
  let st = Ir_interp.init_state m in
  ignore (Ir_interp.run_func st fn ());
  match (Hashtbl.find st.Ir_interp.mem "a", Hashtbl.find st.Ir_interp.mem "b") with
  | Ir_interp.MI a, Ir_interp.MI b ->
      for k = 0 to 3 do
        Alcotest.(check int64) (Printf.sprintf "lane %d" k)
          (Int64.add a.(k) 10L) b.(k)
      done
  | _ -> Alcotest.fail "expected int arrays"

let test_masked_store () =
  let m = lower "int a[8]; int f() { return 0; }" in
  let fn = find_fn m "f" in
  let vty = Ir.Vec (4, Ir.I32) in
  let mask = Ir.fresh_reg fn (Ir.Vec (4, Ir.I1)) in
  let idx = Ir.fresh_reg fn (Ir.Vec (4, Ir.I32)) in
  let body =
    [ Ir.Block
        [ (* mask = lanes < 2, i.e. [1;1;0;0] *)
          Ir.Def (idx, Ir.Stride (Ir.Vec (4, Ir.I32), Ir.IConst 0L, 1));
          Ir.Def (mask, Ir.ICmp (Ir.CLt, Ir.Vec (4, Ir.I32), Ir.Reg idx, Ir.IConst 2L));
          Ir.Store (vty, { Ir.base = "a"; index = Ir.IConst 0L; stride = 1;
                           mask = Some (Ir.Reg mask) }, Ir.IConst 999L) ];
      Ir.Return None ]
  in
  fn.Ir.fn_body <- body;
  let st = Ir_interp.init_state m in
  let before =
    match Hashtbl.find st.Ir_interp.mem "a" with
    | Ir_interp.MI a -> Array.copy a
    | _ -> Alcotest.fail "int array"
  in
  ignore (Ir_interp.run_func st fn ());
  (match Hashtbl.find st.Ir_interp.mem "a" with
  | Ir_interp.MI a ->
      Alcotest.(check int64) "lane0 written" 999L a.(0);
      Alcotest.(check int64) "lane1 written" 999L a.(1);
      Alcotest.(check int64) "lane2 preserved" before.(2) a.(2);
      Alcotest.(check int64) "lane3 preserved" before.(3) a.(3)
  | _ -> Alcotest.fail "int array")

let test_strided_load () =
  let m = lower "int a[16]; int f() { return 0; }" in
  let fn = find_fn m "f" in
  let vty = Ir.Vec (4, Ir.I32) in
  let rv = Ir.fresh_reg fn vty in
  fn.Ir.fn_body <-
    [ Ir.Block
        [ Ir.Def (rv, Ir.Load (vty, { Ir.base = "a"; index = Ir.IConst 1L;
                                      stride = 3; mask = None })) ];
      Ir.Return (Some ([], Ir.Reg rv)) ];
  let st = Ir_interp.init_state m in
  (match (Ir_interp.run_func st fn (), Hashtbl.find st.Ir_interp.mem "a") with
  | Some (Ir_interp.VVI v), Ir_interp.MI a ->
      Alcotest.(check int64) "lane0=a[1]" a.(1) v.(0);
      Alcotest.(check int64) "lane1=a[4]" a.(4) v.(1);
      Alcotest.(check int64) "lane2=a[7]" a.(7) v.(2);
      Alcotest.(check int64) "lane3=a[10]" a.(10) v.(3)
  | _ -> Alcotest.fail "expected vector result")

let test_reduce () =
  let m = lower "int f() { return 0; }" in
  let fn = find_fn m "f" in
  let v = Ir.fresh_reg fn (Ir.Vec (4, Ir.I32)) in
  let r = Ir.fresh_reg fn (Ir.Scalar Ir.I32) in
  fn.Ir.fn_body <-
    [ Ir.Block
        [ Ir.Def (v, Ir.Stride (Ir.Vec (4, Ir.I32), Ir.IConst 5L, 2));
          (* lanes 5,7,9,11 *)
          Ir.Def (r, Ir.Reduce (Ir.RAdd, Ir.I32, Ir.Reg v)) ];
      Ir.Return (Some ([], Ir.Reg r)) ];
  Alcotest.(check int) "5+7+9+11" 32 (run_int m "f")

(* ------------------------------------------------------------------ *)
(* Observer / step accounting                                           *)
(* ------------------------------------------------------------------ *)

let test_observer_counts () =
  let m = lower "int f() { int s = 0; int i; for (i = 0; i < 4; i++) s += 1; return s; }" in
  let count = ref 0 in
  let st = Ir_interp.init_state ~observer:(fun _ -> incr count) m in
  ignore (Ir_interp.run_func st (find_fn m "f") ());
  Alcotest.(check bool) "instructions observed" true (!count > 8)

let test_step_budget () =
  let m = lower "int f() { int i = 0; while (1) { i++; } return i; }" in
  let st = Ir_interp.init_state ~max_steps:1000 m in
  match Ir_interp.run_func st (find_fn m "f") () with
  | exception Ir_interp.Trap _ -> ()
  | _ -> Alcotest.fail "expected step budget trap"

(* ------------------------------------------------------------------ *)
(* QCheck: random scalar programs round-trip deterministically          *)
(* ------------------------------------------------------------------ *)

(* A tiny generator of straight-line integer programs; the property is that
   the interpreter is deterministic and pure across runs. *)
let gen_prog : string QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 1 6 in
    let* ops =
      list_repeat n
        (oneofl
           [ "s += i;"; "s -= 2*i;"; "s += i * i;"; "s ^= i;"; "s += i << 1;";
             "a[i % 16] += i;"; "s += a[i % 16];"; "s = s > 100 ? s - 50 : s + 3;" ])
    in
    let* bound = int_range 1 40 in
    return
      (Printf.sprintf
         "int a[16]; int f() { int s = 0; int i; for (i = 0; i < %d; i++) { %s } return s; }"
         bound (String.concat " " ops))
  in
  QCheck.make gen ~print:(fun s -> s)

let prop_interp_deterministic =
  QCheck.Test.make ~name:"interpreter is deterministic" ~count:100 gen_prog
    (fun src ->
      let m1 = lower src and m2 = lower src in
      run_int m1 "f" = run_int m2 "f")

let prop_lowered_loops_execute =
  QCheck.Test.make ~name:"generated loops lower to counted loops" ~count:100
    gen_prog (fun src ->
      let m = lower src in
      let fn = find_fn m "f" in
      List.length (Ir.func_loops fn) = 1)

(* ------------------------------------------------------------------ *)
(* QCheck: copy_modul is a deep copy w.r.t. every transform             *)
(* ------------------------------------------------------------------ *)

(* Vectorizable loop bodies (unit-stride array traffic), so the planner
   really rewrites the copy: widened loads/stores, interleaving, epilogue
   loops, fresh registers — everything that would corrupt the original if
   any mutable state were shared. *)
let gen_vec_prog : string QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 1 4 in
    let* ops =
      list_repeat n
        (oneofl
           [ "a[i] = b[i] + c[i];"; "a[i] = 2 * b[i] - c[i];";
             "s += a[i] * b[i];"; "b[i] = a[i] + 3;"; "c[i] = a[i] ^ b[i];" ])
    in
    let* bound = int_range 3 64 in
    return
      (Printf.sprintf
         "int a[64]; int b[64]; int c[64]; int f() { int s = 0; int i; for \
          (i = 0; i < %d; i++) { %s } return s; }"
         bound (String.concat " " ops))
  in
  QCheck.make gen ~print:(fun s -> s)

(* the full set of passes a shared-artifact sweep runs on each copy *)
let transform_copy ?(vf = 4) ?(if_ = 2) (c : Ir.modul) : unit =
  ignore (Vectorizer.Licm.run_modul c);
  ignore (Vectorizer.Cse.run_modul c);
  ignore (Vectorizer.Licm.run_modul c);
  let preps = Vectorizer.Planner.prepare_modul c in
  ignore
    (Vectorizer.Planner.run_prepared
       ~requests:
         (Vectorizer.Planner.uniform preps
            { Vectorizer.Transform.vf; if_ }) c preps);
  ignore (Vectorizer.Licm.run_modul c)

let prop_copy_isolates_transforms =
  QCheck.Test.make ~name:"copy_modul isolates transforms from the original"
    ~count:60 gen_vec_prog (fun src ->
      let m = lower src in
      let before = Ir.modul_to_string m in
      let c = Ir.copy_modul m in
      transform_copy c;
      (* the copy really changed (otherwise this property is vacuous) and
         the original prints identically, register types included *)
      Ir.modul_to_string c <> before && Ir.modul_to_string m = before)

let prop_copy_differential_interp =
  QCheck.Test.make
    ~name:"transformed copy and untouched original agree under Ir_interp"
    ~count:60 gen_vec_prog (fun src ->
      let m = lower src in
      let r0 = run_int m "f" in
      let c = Ir.copy_modul m in
      transform_copy c;
      (* vectorized copy computes the same value; the original still runs
         and still computes it (its semantics were not corrupted) *)
      run_int c "f" = r0 && run_int m "f" = r0)

let prop_copy_independent_plans =
  QCheck.Test.make
    ~name:"two copies transformed with different plans do not interfere"
    ~count:40 gen_vec_prog (fun src ->
      let m = lower src in
      let r0 = run_int m "f" in
      let c1 = Ir.copy_modul m and c2 = Ir.copy_modul m in
      transform_copy ~vf:8 ~if_:1 c1;
      transform_copy ~vf:2 ~if_:4 c2;
      run_int c1 "f" = r0 && run_int c2 "f" = r0
      && run_int m "f" = r0)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_interp_deterministic; prop_lowered_loops_execute;
      prop_copy_isolates_transforms; prop_copy_differential_interp;
      prop_copy_independent_plans ]

let suite =
  [
    ( "ir.expr",
      [
        Alcotest.test_case "return constant" `Quick test_return_constant;
        Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "precedence semantics" `Quick test_precedence_semantics;
        Alcotest.test_case "locals and assignment" `Quick test_locals_and_assign;
        Alcotest.test_case "ternary select" `Quick test_ternary;
        Alcotest.test_case "comparisons yield 0/1" `Quick
          test_comparison_produces_01;
        Alcotest.test_case "logical ops" `Quick test_logical_ops;
        Alcotest.test_case "bitwise ops" `Quick test_bitwise;
        Alcotest.test_case "shift and rem" `Quick test_shifts_and_rem;
        Alcotest.test_case "post-increment value" `Quick test_postinc_value;
        Alcotest.test_case "pre-increment value" `Quick test_preinc_value;
        Alcotest.test_case "char wraps" `Quick test_char_wrapping;
        Alcotest.test_case "short wraps" `Quick test_short_wrapping;
        Alcotest.test_case "float arithmetic" `Quick test_float_arith;
        Alcotest.test_case "float to int" `Quick test_int_float_conversion;
        Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
        Alcotest.test_case "div by zero" `Quick test_division_by_zero_is_zero;
        Alcotest.test_case "builtin call" `Quick test_call_builtin;
      ] );
    ( "ir.memory",
      [
        Alcotest.test_case "array store/load" `Quick test_array_store_load;
        Alcotest.test_case "multidim linearization" `Quick test_multidim_linearize;
        Alcotest.test_case "row-major layout" `Quick test_multidim_rowmajor;
        Alcotest.test_case "local array" `Quick test_local_array;
        Alcotest.test_case "global scalar" `Quick test_global_scalar;
        Alcotest.test_case "deterministic init" `Quick test_deterministic_init;
        Alcotest.test_case "out-of-bounds traps" `Quick test_oob_traps;
      ] );
    ( "ir.control",
      [
        Alcotest.test_case "if/else" `Quick test_if_else;
        Alcotest.test_case "counted loop" `Quick test_counted_loop;
        Alcotest.test_case "loop canonicalized" `Quick test_counted_loop_canonical;
        Alcotest.test_case "step 2" `Quick test_loop_step2;
        Alcotest.test_case "downward loop" `Quick test_loop_downward;
        Alcotest.test_case "decl induction" `Quick test_loop_decl_induction;
        Alcotest.test_case "nested loops" `Quick test_nested_loops;
        Alcotest.test_case "while loop" `Quick test_while_loop;
        Alcotest.test_case "break" `Quick test_break;
        Alcotest.test_case "continue" `Quick test_continue;
        Alcotest.test_case "non-canonical falls back" `Quick
          test_noncanonical_becomes_while;
        Alcotest.test_case "symbolic bound" `Quick test_symbolic_bound;
      ] );
    ( "ir.paper",
      [
        Alcotest.test_case "example1 runs" `Quick test_paper_example1_runs;
        Alcotest.test_case "example4 gemm" `Quick test_paper_example4_gemm;
      ] );
    ( "ir.vector",
      [
        Alcotest.test_case "vector add" `Quick test_vector_ops_semantics;
        Alcotest.test_case "masked store" `Quick test_masked_store;
        Alcotest.test_case "strided load" `Quick test_strided_load;
        Alcotest.test_case "horizontal reduce" `Quick test_reduce;
      ] );
    ( "ir.interp",
      [
        Alcotest.test_case "observer counts" `Quick test_observer_counts;
        Alcotest.test_case "step budget" `Quick test_step_budget;
      ]
      @ qcheck_tests );
  ]
