(* Tests for the neural-network substrate: RNG, tensors, layers, optimizers.
   Gradient checks against finite differences are the load-bearing tests. *)

let feps = 1e-4

(* ------------------------------------------------------------------ *)
(* RNG                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Nn.Rng.create 7 and b = Nn.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Nn.Rng.float a) (Nn.Rng.float b)
  done

let test_rng_range () =
  let r = Nn.Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Nn.Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0);
    let i = Nn.Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (i >= 0 && i < 10)
  done

let test_rng_normal_moments () =
  let r = Nn.Rng.create 2 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Nn.Rng.normal r) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs
    /. float_of_int n
  in
  Alcotest.(check bool) "mean ~ 0" true (abs_float mean < 0.05);
  Alcotest.(check bool) "var ~ 1" true (abs_float (var -. 1.0) < 0.1)

let test_rng_shuffle_permutes () =
  let r = Nn.Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Nn.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 50 Fun.id);
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 50 Fun.id)

(* ------------------------------------------------------------------ *)
(* Tensor ops                                                           *)
(* ------------------------------------------------------------------ *)

let test_gemv () =
  let m = Nn.Tensor.mat_create 2 3 in
  (* [[1 2 3]; [4 5 6]] *)
  List.iteri (fun i v -> m.Nn.Tensor.data.(i) <- v) [ 1.; 2.; 3.; 4.; 5.; 6. ];
  let y = Nn.Tensor.vec_create 2 in
  Nn.Tensor.gemv m [| 1.0; 0.5; -1.0 |] y;
  Alcotest.(check (float feps)) "y0" (-1.0) y.(0);
  Alcotest.(check (float feps)) "y1" 0.5 y.(1)

let test_gemv_t () =
  let m = Nn.Tensor.mat_create 2 3 in
  List.iteri (fun i v -> m.Nn.Tensor.data.(i) <- v) [ 1.; 2.; 3.; 4.; 5.; 6. ];
  let y = Nn.Tensor.vec_create 3 in
  Nn.Tensor.gemv_t m [| 1.0; -1.0 |] y;
  Alcotest.(check (float feps)) "y0" (-3.0) y.(0);
  Alcotest.(check (float feps)) "y1" (-3.0) y.(1);
  Alcotest.(check (float feps)) "y2" (-3.0) y.(2)

let test_ger () =
  let m = Nn.Tensor.mat_create 2 2 in
  Nn.Tensor.ger m [| 2.0; 6.0 |] [| 4.0; 5.0 |];
  Alcotest.(check (float feps)) "m00" 8.0 (Nn.Tensor.get m 0 0);
  Alcotest.(check (float feps)) "m11" 30.0 (Nn.Tensor.get m 1 1)

let test_softmax () =
  let p = Nn.Tensor.softmax [| 1.0; 2.0; 3.0 |] in
  let sum = Array.fold_left ( +. ) 0.0 p in
  Alcotest.(check (float feps)) "sums to 1" 1.0 sum;
  Alcotest.(check bool) "monotone" true (p.(0) < p.(1) && p.(1) < p.(2));
  (* stability with large inputs *)
  let p2 = Nn.Tensor.softmax [| 1000.0; 1001.0 |] in
  Alcotest.(check bool) "no nan" true (Float.is_finite p2.(0))

let test_log_softmax_consistent () =
  let z = [| 0.3; -1.2; 2.0; 0.0 |] in
  let p = Nn.Tensor.softmax z and lp = Nn.Tensor.log_softmax z in
  Array.iteri
    (fun i pi -> Alcotest.(check (float 1e-9)) "log p" (log pi) lp.(i))
    p

let test_sample_respects_distribution () =
  let rng = Nn.Rng.create 4 in
  let counts = [| 0; 0; 0 |] in
  for _ = 1 to 3000 do
    let i = Nn.Tensor.sample rng [| 0.1; 0.2; 0.7 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "heavy index dominates" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0))

let test_argmax () =
  Alcotest.(check int) "argmax" 2 (Nn.Tensor.argmax [| 0.1; -3.0; 5.0; 4.9 |])

(* ---- sample validation (regression: the old loop silently returned the
   last index whenever u overshot the accumulated mass, so a NaN or
   deficient probability vector produced an arbitrary action instead of
   an error) ---- *)

let expect_bad_probability what f =
  match f () with
  | exception Nn.Tensor.Bad_probability _ -> ()
  | i -> Alcotest.failf "%s: expected Bad_probability, got index %d" what i

let test_sample_rejects_nan () =
  expect_bad_probability "nan entry" (fun () ->
      Nn.Tensor.sample_u ~u:0.5 [| 0.3; Float.nan; 0.4 |])

let test_sample_rejects_negative () =
  expect_bad_probability "negative entry" (fun () ->
      Nn.Tensor.sample_u ~u:0.5 [| 0.6; -0.2; 0.6 |])

let test_sample_rejects_deficient_mass () =
  (* u beyond the total mass used to fall through to the last index *)
  expect_bad_probability "mass 0.3" (fun () ->
      Nn.Tensor.sample_u ~u:0.9 [| 0.1; 0.2 |]);
  expect_bad_probability "empty vector" (fun () ->
      Nn.Tensor.sample_u ~u:0.5 [||])

let test_sample_u_valid_vectors () =
  Alcotest.(check int) "picks by cdf" 1
    (Nn.Tensor.sample_u ~u:0.35 [| 0.25; 0.25; 0.25; 0.25 |]);
  (* a softmax whose sum rounds to 1 - epsilon must still serve u ~ 1
     via the last index, not raise *)
  Alcotest.(check int) "rounding tolerance" 1
    (Nn.Tensor.sample_u ~u:0.99999999 [| 0.5; 0.4999999 |])

(* ------------------------------------------------------------------ *)
(* Gradient checks                                                      *)
(* ------------------------------------------------------------------ *)

(* numerically check dL/dp for a few parameters, L = sum(output .* w) *)
let test_dense_gradients () =
  let rng = Nn.Rng.create 5 in
  let l = Nn.Dense.create rng ~in_dim:4 ~out_dim:3 in
  let x = [| 0.5; -1.0; 0.25; 2.0 |] in
  let wsum = [| 1.0; -2.0; 0.5 |] in
  let loss () = Nn.Tensor.dot (Nn.Dense.forward l x) wsum in
  Nn.Dense.zero_grad l;
  ignore (Nn.Dense.backward l ~x ~dy:wsum);
  (* check a handful of weight gradients *)
  List.iter
    (fun (i, j) ->
      let saved = Nn.Tensor.get l.Nn.Dense.w i j in
      Nn.Tensor.set l.Nn.Dense.w i j (saved +. 1e-5);
      let lp = loss () in
      Nn.Tensor.set l.Nn.Dense.w i j (saved -. 1e-5);
      let lm = loss () in
      Nn.Tensor.set l.Nn.Dense.w i j saved;
      let numeric = (lp -. lm) /. 2e-5 in
      let analytic = Nn.Tensor.get l.Nn.Dense.gw i j in
      if abs_float (numeric -. analytic) > 1e-3 then
        Alcotest.failf "dW[%d,%d]: numeric %f vs analytic %f" i j numeric
          analytic)
    [ (0, 0); (1, 2); (2, 3); (0, 1) ]

let test_dense_input_gradient () =
  let rng = Nn.Rng.create 6 in
  let l = Nn.Dense.create rng ~in_dim:3 ~out_dim:2 in
  let x = [| 0.1; 0.7; -0.3 |] in
  let wsum = [| 0.5; -1.5 |] in
  Nn.Dense.zero_grad l;
  let dx = Nn.Dense.backward l ~x ~dy:wsum in
  for j = 0 to 2 do
    let x2 = Array.copy x in
    x2.(j) <- x2.(j) +. 1e-5;
    let lp = Nn.Tensor.dot (Nn.Dense.forward l x2) wsum in
    x2.(j) <- x2.(j) -. 2e-5;
    let lm = Nn.Tensor.dot (Nn.Dense.forward l x2) wsum in
    let numeric = (lp -. lm) /. 2e-5 in
    if abs_float (numeric -. dx.(j)) > 1e-3 then
      Alcotest.failf "dx[%d]: numeric %f vs analytic %f" j numeric dx.(j)
  done

let test_mlp_gradients () =
  let rng = Nn.Rng.create 7 in
  let mlp = Nn.Mlp.create rng ~dims:[ 4; 8; 3 ] ~act:Nn.Mlp.Tanh in
  let x = [| 0.2; -0.6; 1.1; 0.05 |] in
  let wsum = [| 1.0; 0.3; -0.8 |] in
  let loss () = Nn.Tensor.dot (Nn.Mlp.forward mlp x) wsum in
  Nn.Mlp.zero_grad mlp;
  let cache = Nn.Mlp.forward_cached mlp x in
  let dx = Nn.Mlp.backward mlp cache ~dout:wsum in
  (* input gradient via finite differences *)
  for j = 0 to 3 do
    let saved = x.(j) in
    x.(j) <- saved +. 1e-5;
    let lp = loss () in
    x.(j) <- saved -. 1e-5;
    let lm = loss () in
    x.(j) <- saved;
    let numeric = (lp -. lm) /. 2e-5 in
    if abs_float (numeric -. dx.(j)) > 1e-3 then
      Alcotest.failf "mlp dx[%d]: numeric %f vs analytic %f" j numeric dx.(j)
  done;
  (* and one weight of the first layer *)
  let l0 = List.hd mlp.Nn.Mlp.layers in
  let saved = Nn.Tensor.get l0.Nn.Dense.w 2 1 in
  Nn.Tensor.set l0.Nn.Dense.w 2 1 (saved +. 1e-5);
  let lp = loss () in
  Nn.Tensor.set l0.Nn.Dense.w 2 1 (saved -. 1e-5);
  let lm = loss () in
  Nn.Tensor.set l0.Nn.Dense.w 2 1 saved;
  let numeric = (lp -. lm) /. 2e-5 in
  let analytic = Nn.Tensor.get l0.Nn.Dense.gw 2 1 in
  if abs_float (numeric -. analytic) > 1e-3 then
    Alcotest.failf "mlp dW: numeric %f vs analytic %f" numeric analytic

(* ------------------------------------------------------------------ *)
(* Optimizers                                                           *)
(* ------------------------------------------------------------------ *)

(* minimize (p - 3)^2 *)
let quad_converges opt_of =
  let p = [| 0.0 |] and g = [| 0.0 |] in
  let opt = opt_of () in
  for _ = 1 to 500 do
    g.(0) <- 2.0 *. (p.(0) -. 3.0);
    Nn.Optim.step opt [ (p, g) ]
  done;
  abs_float (p.(0) -. 3.0) < 0.05

let test_sgd_converges () =
  Alcotest.(check bool) "sgd" true (quad_converges (fun () -> Nn.Optim.sgd ~lr:0.05))

let test_adam_converges () =
  Alcotest.(check bool) "adam" true
    (quad_converges (fun () -> Nn.Optim.adam ~lr:0.05 ()))

let test_adam_beats_noise () =
  (* adam with tiny lr still moves in the right direction *)
  let p = [| 10.0 |] and g = [| 0.0 |] in
  let opt = Nn.Optim.adam ~lr:0.01 () in
  for _ = 1 to 100 do
    g.(0) <- p.(0);
    Nn.Optim.step opt [ (p, g) ]
  done;
  Alcotest.(check bool) "moved toward 0" true (p.(0) < 10.0)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* regression: Adam pairs its moment vectors with the params purely by
   position, so a model whose shape changed under a live optimizer used
   to corrupt the moments silently — now it must raise Bad_state *)
let test_adam_rejects_shape_change () =
  let opt = Nn.Optim.adam ~lr:0.01 () in
  let p = [| 1.0; 2.0 |] and g = [| 0.1; 0.1 |] in
  Nn.Optim.step opt [ (p, g) ];
  (* more parameter tensors than moment slots *)
  (match Nn.Optim.step opt [ (p, g); (p, g) ] with
  | () -> Alcotest.fail "expected Bad_state on a changed param count"
  | exception Nn.Optim.Bad_state m ->
      Alcotest.(check bool) "count message" true
        (contains ~sub:"moment slots" m));
  (* same count, resized tensor *)
  let p3 = [| 1.0; 2.0; 3.0 |] and g3 = [| 0.1; 0.1; 0.1 |] in
  (match Nn.Optim.step opt [ (p3, g3) ] with
  | () -> Alcotest.fail "expected Bad_state on a resized tensor"
  | exception Nn.Optim.Bad_state m ->
      Alcotest.(check bool) "length message" true (contains ~sub:"elements" m));
  (* the matching list still steps fine afterwards *)
  Nn.Optim.step opt [ (p, g) ]

(* ------------------------------------------------------------------ *)
(* Batched kernels: bit-identical to the scalar path                    *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let fill_rows (rows : float array array) : Nn.Batch.buf =
  let w = Array.length rows.(0) in
  let b = Nn.Batch.create (Array.length rows * w) in
  Array.iteri
    (fun r xr -> Array.iteri (fun j v -> Bigarray.Array1.set b ((r * w) + j) v) xr)
    rows;
  b

(* random layers over random shapes: dense_rows must reproduce
   Dense.forward bit for bit, row by row (covers the four-row blocks, the
   remainder rows, and the fused bias add) *)
let test_dense_rows_bitwise () =
  let rng = Nn.Rng.create 31 in
  for trial = 1 to 25 do
    let in_dim = 1 + Nn.Rng.int rng 17 in
    let out_dim = 1 + Nn.Rng.int rng 13 in
    let rows = 1 + Nn.Rng.int rng 9 in
    let l = Nn.Dense.create rng ~in_dim ~out_dim in
    let xs =
      Array.init rows (fun _ -> Array.init in_dim (fun _ -> Nn.Rng.normal rng))
    in
    let y = Nn.Batch.create (rows * out_dim) in
    Nn.Dense.forward_rows l ~x:(fill_rows xs) ~y ~rows;
    Array.iteri
      (fun r xr ->
        let expect = Nn.Dense.forward l xr in
        for o = 0 to out_dim - 1 do
          let got = Nn.Batch.get y ((r * out_dim) + o) in
          if bits expect.(o) <> bits got then
            Alcotest.failf "trial %d (%dx%d) row %d out %d: %h vs %h" trial
              in_dim out_dim r o expect.(o) got
        done)
      xs
  done

(* full trunk stacks under every activation, including the empty stack
   (forward_rows returns the input buffer, as forward returns x) *)
let test_mlp_rows_bitwise () =
  let rng = Nn.Rng.create 32 in
  let arena = Nn.Batch.create_arena () in
  List.iter
    (fun (act, dims) ->
      let mlp = Nn.Mlp.create rng ~dims ~act in
      let in_dim = List.hd dims in
      let out_dim = List.hd (List.rev dims) in
      let rows = 7 in
      let xs =
        Array.init rows (fun _ ->
            Array.init in_dim (fun _ -> Nn.Rng.normal rng))
      in
      let c = Nn.Mlp.forward_rows mlp arena ~x:(fill_rows xs) ~rows in
      let y = c.Nn.Mlp.output in
      Array.iteri
        (fun r xr ->
          let expect = Nn.Mlp.forward mlp xr in
          for o = 0 to out_dim - 1 do
            let got = Nn.Batch.get y ((r * out_dim) + o) in
            if bits expect.(o) <> bits got then
              Alcotest.failf "dims %s row %d out %d: %h vs %h"
                (String.concat "x" (List.map string_of_int dims))
                r o expect.(o) got
          done)
        xs)
    [ (Nn.Mlp.Tanh, [ 4; 8; 3 ]); (Nn.Mlp.Relu, [ 5; 6; 6; 2 ]);
      (Nn.Mlp.Linear, [ 3; 4 ]); (Nn.Mlp.Tanh, [ 4 ]) ]

let test_softmax_inplace_bitwise () =
  let rng = Nn.Rng.create 33 in
  for _ = 1 to 20 do
    let n = 1 + Nn.Rng.int rng 12 in
    let z = Array.init n (fun _ -> 4.0 *. Nn.Rng.normal rng) in
    let expect = Nn.Tensor.softmax z in
    let s = Array.copy z in
    Nn.Batch.softmax_inplace s ~n;
    for i = 0 to n - 1 do
      if bits expect.(i) <> bits s.(i) then
        Alcotest.failf "softmax[%d]: %h vs %h" i expect.(i) s.(i)
    done
  done

(* arena slots keep their identity (and grow, never shrink) so the warm
   steady state is allocation-free *)
let test_arena_slot_reuse () =
  let a = Nn.Batch.create_arena () in
  let b1 = Nn.Batch.slot a "x" 10 in
  let b2 = Nn.Batch.slot a "x" 8 in
  Alcotest.(check bool) "smaller request reuses the buffer" true (b1 == b2);
  let b3 = Nn.Batch.slot a "x" 1000 in
  Alcotest.(check bool) "larger request grows" true
    (Bigarray.Array1.dim b3 >= 1000);
  let b4 = Nn.Batch.slot a "y" 10 in
  Alcotest.(check bool) "names are distinct slots" true (b3 != b4);
  Nn.Batch.reset a;
  let b5 = Nn.Batch.slot a "x" 10 in
  Alcotest.(check bool) "reset drops the store" true (b3 != b5)

(* ------------------------------------------------------------------ *)
(* Native kernels vs the OCaml loops they replaced                      *)
(* ------------------------------------------------------------------ *)

(* The pure-OCaml loops that ran before the kernels moved to C, kept
   verbatim as the references the C kernels must match bit for bit. *)
module Ref = struct
  let gemv (m : Nn.Tensor.mat) (x : float array) (y : float array) =
    let data = m.Nn.Tensor.data and cols = m.Nn.Tensor.cols in
    for i = 0 to m.Nn.Tensor.rows - 1 do
      let base = i * cols in
      let acc = ref 0.0 in
      for j = 0 to cols - 1 do
        acc :=
          !acc +. (Array.unsafe_get data (base + j) *. Array.unsafe_get x j)
      done;
      y.(i) <- !acc
    done

  let gemv_t (m : Nn.Tensor.mat) (x : float array) (y : float array) =
    Nn.Tensor.fill_zero y;
    let data = m.Nn.Tensor.data and cols = m.Nn.Tensor.cols in
    for i = 0 to m.Nn.Tensor.rows - 1 do
      let base = i * cols in
      let xi = Array.unsafe_get x i in
      if xi <> 0.0 then
        for j = 0 to cols - 1 do
          Array.unsafe_set y j
            (Array.unsafe_get y j +. (Array.unsafe_get data (base + j) *. xi))
        done
    done

  let ger (m : Nn.Tensor.mat) (x : float array) (y : float array) =
    let data = m.Nn.Tensor.data and cols = m.Nn.Tensor.cols in
    for i = 0 to m.Nn.Tensor.rows - 1 do
      let base = i * cols in
      let xi = Array.unsafe_get x i in
      if xi <> 0.0 then
        for j = 0 to cols - 1 do
          Array.unsafe_set data (base + j)
            (Array.unsafe_get data (base + j) +. (xi *. Array.unsafe_get y j))
        done
    done

  (* the 4x-unrolled single-accumulator loop of the OCaml dense_rows *)
  let dense_rows ~(w : Nn.Tensor.mat) ~(b : float array) ~(x : Nn.Batch.buf)
      ~(y : Nn.Batch.buf) ~rows =
    let get = Bigarray.Array1.unsafe_get and set = Bigarray.Array1.unsafe_set in
    let in_dim = w.Nn.Tensor.cols and out_dim = w.Nn.Tensor.rows in
    let wd = w.Nn.Tensor.data in
    let tail = in_dim land 3 and main = in_dim land lnot 3 in
    for r = 0 to rows - 1 do
      let xbase = r * in_dim and ybase = r * out_dim in
      for o = 0 to out_dim - 1 do
        let wbase = o * in_dim in
        let acc = ref 0.0 in
        let k = ref 0 in
        while !k < main do
          let k0 = !k in
          let a0 = !acc +. (wd.(wbase + k0) *. get x (xbase + k0)) in
          let a1 = a0 +. (wd.(wbase + k0 + 1) *. get x (xbase + k0 + 1)) in
          let a2 = a1 +. (wd.(wbase + k0 + 2) *. get x (xbase + k0 + 2)) in
          acc := a2 +. (wd.(wbase + k0 + 3) *. get x (xbase + k0 + 3));
          k := k0 + 4
        done;
        for k = main to main + tail - 1 do
          acc := !acc +. (wd.(wbase + k) *. get x (xbase + k))
        done;
        set y (ybase + o) (!acc +. b.(o))
      done
    done

  let adam ~scale ~beta1 ~beta2 ~eps ~lr ~step p g m v =
    let t_ = float_of_int step in
    let bc1 = 1.0 -. (beta1 ** t_) and bc2 = 1.0 -. (beta2 ** t_) in
    for i = 0 to Array.length p - 1 do
      let gi = g.(i) /. scale in
      m.(i) <- (beta1 *. m.(i)) +. ((1.0 -. beta1) *. gi);
      v.(i) <- (beta2 *. v.(i)) +. ((1.0 -. beta2) *. gi *. gi);
      let mhat = m.(i) /. bc1 and vhat = v.(i) /. bc2 in
      p.(i) <- p.(i) -. (lr *. mhat /. (sqrt vhat +. eps))
    done
end

(* an entry drawn to hit every branch: ordinary values, both zeros (the
   skip rule), NaN and both infinities *)
let special_float rng =
  match Nn.Rng.int rng 12 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> Float.nan
  | 3 -> Float.infinity
  | 4 -> Float.neg_infinity
  | _ -> Nn.Rng.normal rng

(* a vector that is ordinary, all-zero, or salted with special values *)
let kernel_vec rng n =
  match Nn.Rng.int rng 4 with
  | 0 -> Array.make n (if Nn.Rng.int rng 2 = 0 then 0.0 else -0.0)
  | 1 -> Array.init n (fun _ -> special_float rng)
  | _ -> Array.init n (fun _ -> Nn.Rng.normal rng)

let kernel_mat rng rows cols =
  { Nn.Tensor.rows; cols;
    data =
      Array.init (rows * cols) (fun _ ->
          if Nn.Rng.int rng 6 = 0 then special_float rng
          else Nn.Rng.normal rng) }

(* dimensions either side of every tile and vector-width boundary: the
   variants' vectors hold 2, 4 or 8 doubles, their tiles span 8, 12 or
   24 columns and 2, 3 or 8 rows *)
let boundary_dims =
  [| 0; 1; 2; 3; 4; 7; 8; 9; 11; 12; 13; 15; 16; 17; 23; 24; 25; 31; 32; 33 |]

(* odd, even and empty dimensions, a third of them on a boundary *)
let kernel_dim rng =
  match Nn.Rng.int rng 15 with
  | 0 -> 0
  | n when n < 10 -> Nn.Rng.int rng 12
  | _ -> boundary_dims.(Nn.Rng.int rng (Array.length boundary_dims))

(* [f isa] under every kernel variant this CPU can execute *)
let for_every_isa (f : string -> unit) =
  List.iter
    (fun isa -> Nn.Batch.For_testing.with_isa isa (fun () -> f isa))
    (Nn.Batch.For_testing.variants ())

(* Bitwise, except that any NaN matches any NaN: IEEE 754 leaves open
   which operand's payload and sign a NaN result carries, and both
   compilers may commute a [*] or [+], so only NaN-ness is part of the
   kernels' contract.  Zeros keep their sign and infinities their bits. *)
let same_bits what (a : float array) (b : float array) =
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) && not (Float.is_nan x && Float.is_nan b.(i))
      then
        Alcotest.failf "%s[%d]: reference %h vs native %h" what i x b.(i))
    a

let buf_of (a : float array) : Nn.Batch.buf =
  let b = Nn.Batch.create (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.set b i v) a;
  b

let array_of_buf (b : Nn.Batch.buf) n = Array.init n (fun i -> Nn.Batch.get b i)

let test_native_tensor_kernels () =
  for_every_isa @@ fun isa ->
  let rng = Nn.Rng.create 41 in
  for trial = 1 to 300 do
    let rows = kernel_dim rng and cols = kernel_dim rng in
    let m = kernel_mat rng rows cols in
    let what k = Printf.sprintf "%s trial %d %s %dx%d" isa trial k rows cols in
    (* gemv *)
    let x = kernel_vec rng cols in
    let y_ref = Array.make rows 1.5 and y = Array.make rows 1.5 in
    Ref.gemv m x y_ref;
    Nn.Tensor.gemv m x y;
    same_bits (what "gemv") y_ref y;
    (* gemv_t *)
    let x = kernel_vec rng rows in
    let y_ref = Array.make cols 1.5 and y = Array.make cols 1.5 in
    Ref.gemv_t m x y_ref;
    Nn.Tensor.gemv_t m x y;
    same_bits (what "gemv_t") y_ref y;
    (* ger, with an all-zero x now and then (every row skipped) *)
    let x =
      if Nn.Rng.int rng 4 = 0 then Array.make rows 0.0 else kernel_vec rng rows
    in
    let y = kernel_vec rng cols in
    let m_ref = Nn.Tensor.mat_copy m and m_nat = Nn.Tensor.mat_copy m in
    Ref.ger m_ref x y;
    Nn.Tensor.ger m_nat x y;
    same_bits (what "ger") m_ref.Nn.Tensor.data m_nat.Nn.Tensor.data
  done

let test_native_batch_kernels () =
  for_every_isa @@ fun isa ->
  let rng = Nn.Rng.create 42 in
  for trial = 1 to 200 do
    let out_dim = kernel_dim rng and in_dim = kernel_dim rng in
    let rows = kernel_dim rng in
    let w = kernel_mat rng out_dim in_dim in
    let what k =
      Printf.sprintf "%s trial %d %s %dx%d rows %d" isa trial k out_dim in_dim
        rows
    in
    (* dense_rows; some input rows all zero *)
    let b = kernel_vec rng out_dim in
    let x =
      buf_of (Array.concat (List.init rows (fun _ -> kernel_vec rng in_dim)))
    in
    let y_ref = Nn.Batch.create (rows * out_dim)
    and y = Nn.Batch.create (rows * out_dim) in
    Ref.dense_rows ~w ~b ~x ~y:y_ref ~rows;
    Nn.Batch.dense_rows ~w ~b ~x ~y ~rows;
    same_bits (what "dense_rows")
      (array_of_buf y_ref (rows * out_dim))
      (array_of_buf y (rows * out_dim));
    (* ger_rows against successive ger calls, identity and indexed *)
    let dys = Array.init rows (fun _ -> kernel_vec rng out_dim) in
    let dy = buf_of (Array.concat (Array.to_list dys)) in
    let xrows = 1 + Nn.Rng.int rng 4 in
    let xs = Array.init xrows (fun _ -> kernel_vec rng in_dim) in
    let xb = buf_of (Array.concat (Array.to_list xs)) in
    let ix = Array.init rows (fun _ -> Nn.Rng.int rng xrows) in
    let g0 = kernel_mat rng out_dim in_dim in
    let g_ref = Nn.Tensor.mat_copy g0 and g = Nn.Tensor.mat_copy g0 in
    Array.iteri (fun r d -> Ref.ger g_ref d xs.(ix.(r))) dys;
    Nn.Batch.ger_rows ~ix g ~dy ~x:xb ~rows;
    same_bits (what "ger_rows indexed") g_ref.Nn.Tensor.data g.Nn.Tensor.data;
    let xs = Array.init rows (fun _ -> kernel_vec rng in_dim) in
    let xb = buf_of (Array.concat (Array.to_list xs)) in
    let g_ref = Nn.Tensor.mat_copy g0 and g = Nn.Tensor.mat_copy g0 in
    Array.iteri (fun r d -> Ref.ger g_ref d xs.(r)) dys;
    Nn.Batch.ger_rows g ~dy ~x:xb ~rows;
    same_bits (what "ger_rows") g_ref.Nn.Tensor.data g.Nn.Tensor.data;
    (* gemv_t_rows against gemv_t row by row *)
    let dx = Nn.Batch.create (rows * in_dim) in
    Nn.Batch.gemv_t_rows w ~dy ~dx ~rows;
    Array.iteri
      (fun r d ->
        let e = Array.make in_dim 0.0 in
        Ref.gemv_t w d e;
        same_bits (what "gemv_t_rows") e
          (Array.init in_dim (fun j -> Nn.Batch.get dx ((r * in_dim) + j))))
      dys
  done

let test_native_adam () =
  for_every_isa @@ fun isa ->
  let rng = Nn.Rng.create 43 in
  for trial = 1 to 50 do
    let n = kernel_dim rng in
    let p = kernel_vec rng n and g = kernel_vec rng n in
    let m = Array.init n (fun _ -> 0.1 *. Nn.Rng.normal rng) in
    let v = Array.init n (fun _ -> abs_float (Nn.Rng.normal rng)) in
    let scale = float_of_int (1 + Nn.Rng.int rng 64) in
    let lr = 1e-3 and beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
    let steps = 1 + Nn.Rng.int rng 3 in
    let pr = Array.copy p and mr = Array.copy m and vr = Array.copy v in
    for step = 1 to steps do
      Ref.adam ~scale ~beta1 ~beta2 ~eps ~lr ~step pr g mr vr
    done;
    (* the optimizer's moments start at zero: seed them through state *)
    let opt = Nn.Optim.adam ~lr () in
    (match opt with
    | Nn.Optim.Adam a -> a.state <- Some [ (m, v) ]
    | Nn.Optim.Sgd _ -> assert false);
    for _ = 1 to steps do
      Nn.Optim.step ~scale opt [ (p, g) ]
    done;
    let what k = Printf.sprintf "%s trial %d adam %s (n %d)" isa trial k n in
    same_bits (what "param") pr p;
    same_bits (what "m") mr m;
    same_bits (what "v") vr v
  done

(* a dy row with scattered exact zeros (the skip rule, both signs) and
   the odd special value *)
let gradient_row rng n =
  Array.init n (fun _ ->
      match Nn.Rng.int rng 40 with
      | 0 | 1 | 2 -> 0.0
      | 3 -> -0.0
      | 4 -> special_float rng
      | _ -> Nn.Rng.normal rng)

(* The agent's real shapes -- the code2vec combiner 112 -> 128 over ~1500
   indexed context rows, the trunk 128 -> 64 and 64 -> 64 and the heads
   64 -> 12 and 64 -> 1 over a minibatch -- forward and backward against
   the reference loops, under every variant: whole tiles, row chunks and
   every remainder path at the sizes training runs. *)
let test_native_agent_shapes () =
  for_every_isa @@ fun isa ->
  let rng = Nn.Rng.create 44 in
  List.iter
    (fun (name, in_dim, out_dim, rows, xrows) ->
      let what k = Printf.sprintf "%s %s %s" isa name k in
      let w = kernel_mat rng out_dim in_dim in
      let b = kernel_vec rng out_dim in
      let xs = Array.init xrows (fun _ -> kernel_vec rng in_dim) in
      let xb = buf_of (Array.concat (Array.to_list xs)) in
      let ix =
        Array.init rows (fun r ->
            if r < xrows then r else Nn.Rng.int rng xrows)
      in
      (* dense_rows over the unique rows *)
      let y_ref = Nn.Batch.create (xrows * out_dim)
      and y = Nn.Batch.create (xrows * out_dim) in
      Ref.dense_rows ~w ~b ~x:xb ~y:y_ref ~rows:xrows;
      Nn.Batch.dense_rows ~w ~b ~x:xb ~y ~rows:xrows;
      same_bits (what "dense_rows")
        (array_of_buf y_ref (xrows * out_dim))
        (array_of_buf y (xrows * out_dim));
      (* ger_rows over the occurrences, indexed into the unique rows *)
      let dys = Array.init rows (fun _ -> gradient_row rng out_dim) in
      let dy = buf_of (Array.concat (Array.to_list dys)) in
      let g0 = kernel_mat rng out_dim in_dim in
      let g_ref = Nn.Tensor.mat_copy g0 and g = Nn.Tensor.mat_copy g0 in
      Array.iteri (fun r d -> Ref.ger g_ref d xs.(ix.(r))) dys;
      Nn.Batch.ger_rows ~ix g ~dy ~x:xb ~rows;
      same_bits (what "ger_rows") g_ref.Nn.Tensor.data g.Nn.Tensor.data;
      (* gemv_t_rows *)
      let dx = Nn.Batch.create (rows * in_dim) in
      Nn.Batch.gemv_t_rows w ~dy ~dx ~rows;
      let e = Array.make in_dim 0.0 in
      Array.iteri
        (fun r d ->
          Ref.gemv_t w d e;
          same_bits (what "gemv_t_rows") e
            (Array.init in_dim (fun j -> Nn.Batch.get dx ((r * in_dim) + j))))
        dys)
    [ ("combiner", 112, 128, 1500, 600); ("trunk 1", 128, 64, 64, 64);
      ("trunk 2", 64, 64, 64, 64); ("policy head", 64, 12, 64, 64);
      ("value head", 64, 1, 64, 64) ]

(* the widest variant the CPU runs is the one dispatched; printed so that
   a CI log records which kernels ran *)
let test_dispatched_isa () =
  let vs = Nn.Batch.For_testing.variants () in
  Printf.printf "native kernels: dispatched %s; this CPU runs %s\n%!"
    (Nn.Batch.For_testing.isa ()) (String.concat ", " vs);
  Alcotest.(check string)
    "widest variant dispatched"
    (List.nth vs (List.length vs - 1))
    (Nn.Batch.For_testing.isa ())

(* every wrapper rejects a length mismatch before anything reaches C *)
let test_native_wrappers_check_lengths () =
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let m = Nn.Tensor.mat_create 3 4 in
  let bad_m = { m with Nn.Tensor.data = Array.make 5 0.0 } in
  let v n = Array.make n 1.0 in
  raises "gemv x" (fun () -> Nn.Tensor.gemv m (v 3) (v 3));
  raises "gemv y" (fun () -> Nn.Tensor.gemv m (v 4) (v 4));
  raises "gemv data" (fun () -> Nn.Tensor.gemv bad_m (v 4) (v 3));
  raises "gemv_t x" (fun () -> Nn.Tensor.gemv_t m (v 4) (v 4));
  raises "gemv_t y" (fun () -> Nn.Tensor.gemv_t m (v 3) (v 3));
  raises "gemv_t data" (fun () -> Nn.Tensor.gemv_t bad_m (v 3) (v 4));
  raises "ger x" (fun () -> Nn.Tensor.ger m (v 4) (v 4));
  raises "ger y" (fun () -> Nn.Tensor.ger m (v 3) (v 3));
  raises "ger data" (fun () -> Nn.Tensor.ger bad_m (v 3) (v 4));
  let buf = Nn.Batch.create in
  raises "dense_rows x" (fun () ->
      Nn.Batch.dense_rows ~w:m ~b:(v 3) ~x:(buf 7) ~y:(buf 6) ~rows:2);
  raises "dense_rows y" (fun () ->
      Nn.Batch.dense_rows ~w:m ~b:(v 3) ~x:(buf 8) ~y:(buf 5) ~rows:2);
  raises "dense_rows b" (fun () ->
      Nn.Batch.dense_rows ~w:m ~b:(v 4) ~x:(buf 8) ~y:(buf 6) ~rows:2);
  raises "dense_rows w" (fun () ->
      Nn.Batch.dense_rows ~w:bad_m ~b:(v 3) ~x:(buf 8) ~y:(buf 6) ~rows:2);
  raises "ger_rows dy" (fun () ->
      Nn.Batch.ger_rows m ~dy:(buf 5) ~x:(buf 8) ~rows:2);
  raises "ger_rows x" (fun () ->
      Nn.Batch.ger_rows m ~dy:(buf 6) ~x:(buf 7) ~rows:2);
  raises "ger_rows ix length" (fun () ->
      Nn.Batch.ger_rows ~ix:[| 0 |] m ~dy:(buf 6) ~x:(buf 8) ~rows:2);
  raises "ger_rows ix range" (fun () ->
      Nn.Batch.ger_rows ~ix:[| 0; 2 |] m ~dy:(buf 6) ~x:(buf 8) ~rows:2);
  raises "ger_rows negative rows" (fun () ->
      Nn.Batch.ger_rows m ~dy:(buf 6) ~x:(buf 8) ~rows:(-1));
  raises "ger_rows g" (fun () ->
      Nn.Batch.ger_rows bad_m ~dy:(buf 6) ~x:(buf 8) ~rows:2);
  raises "gemv_t_rows dy" (fun () ->
      Nn.Batch.gemv_t_rows m ~dy:(buf 5) ~dx:(buf 8) ~rows:2);
  raises "gemv_t_rows dx" (fun () ->
      Nn.Batch.gemv_t_rows m ~dy:(buf 6) ~dx:(buf 7) ~rows:2);
  raises "adam grad" (fun () ->
      Nn.Optim.step (Nn.Optim.adam ~lr:0.1 ()) [ (v 3, v 2) ])

let suite =
  [
    ( "nn.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "ranges" `Quick test_rng_range;
        Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
      ] );
    ( "nn.tensor",
      [
        Alcotest.test_case "gemv" `Quick test_gemv;
        Alcotest.test_case "gemv transpose" `Quick test_gemv_t;
        Alcotest.test_case "outer product" `Quick test_ger;
        Alcotest.test_case "softmax" `Quick test_softmax;
        Alcotest.test_case "log_softmax consistent" `Quick
          test_log_softmax_consistent;
        Alcotest.test_case "sampling" `Quick test_sample_respects_distribution;
        Alcotest.test_case "sample rejects nan" `Quick test_sample_rejects_nan;
        Alcotest.test_case "sample rejects negative" `Quick
          test_sample_rejects_negative;
        Alcotest.test_case "sample rejects deficient mass" `Quick
          test_sample_rejects_deficient_mass;
        Alcotest.test_case "sample_u valid vectors" `Quick
          test_sample_u_valid_vectors;
        Alcotest.test_case "argmax" `Quick test_argmax;
      ] );
    ( "nn.grad",
      [
        Alcotest.test_case "dense weight gradients" `Quick test_dense_gradients;
        Alcotest.test_case "dense input gradient" `Quick
          test_dense_input_gradient;
        Alcotest.test_case "mlp gradients" `Quick test_mlp_gradients;
      ] );
    ( "nn.optim",
      [
        Alcotest.test_case "sgd converges" `Quick test_sgd_converges;
        Alcotest.test_case "adam converges" `Quick test_adam_converges;
        Alcotest.test_case "adam direction" `Quick test_adam_beats_noise;
        Alcotest.test_case "adam rejects shape change" `Quick
          test_adam_rejects_shape_change;
      ] );
    ( "batched.kernels",
      [
        Alcotest.test_case "dense_rows bitwise" `Quick test_dense_rows_bitwise;
        Alcotest.test_case "mlp forward_rows bitwise" `Quick
          test_mlp_rows_bitwise;
        Alcotest.test_case "softmax_inplace bitwise" `Quick
          test_softmax_inplace_bitwise;
        Alcotest.test_case "arena slot reuse" `Quick test_arena_slot_reuse;
        Alcotest.test_case "native tensor kernels bitwise" `Quick
          test_native_tensor_kernels;
        Alcotest.test_case "native batch kernels bitwise" `Quick
          test_native_batch_kernels;
        Alcotest.test_case "native adam bitwise" `Quick test_native_adam;
        Alcotest.test_case "native kernels at the agent's shapes" `Quick
          test_native_agent_shapes;
        Alcotest.test_case "dispatched variant" `Quick test_dispatched_isa;
        Alcotest.test_case "wrappers check lengths" `Quick
          test_native_wrappers_check_lengths;
      ] );
  ]
