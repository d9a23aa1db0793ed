(** Dense vectors and matrices over [float array], with the handful of
    BLAS-1/2 operations the policy network and code2vec need. Row-major. *)

type vec = float array

type mat = { rows : int; cols : int; data : float array }

let vec_create n = Array.make n 0.0

let mat_create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let get m i j = m.data.((i * m.cols) + j)

let set m i j v = m.data.((i * m.cols) + j) <- v

(** Xavier/Glorot uniform initialization. *)
let mat_xavier (rng : Rng.t) rows cols =
  let limit = sqrt (6.0 /. float_of_int (rows + cols)) in
  { rows; cols;
    data = Array.init (rows * cols) (fun _ -> Rng.range rng ~lo:(-.limit) ~hi:limit) }

let vec_copy = Array.copy

let mat_copy m = { m with data = Array.copy m.data }

let fill_zero (v : vec) = Array.fill v 0 (Array.length v) 0.0

let mat_fill_zero m = Array.fill m.data 0 (Array.length m.data) 0.0

(* The inner loops live in kernels.c ([@@noalloc], bit-identical to the
   scalar loops they replaced — see the exactness contract there).  Each
   wrapper checks every length first: nothing unchecked reaches C. *)
external gemv_k :
  float array -> float array -> float array -> int -> int -> unit = "nv_gemv"
[@@noalloc]

external gemv_t_k :
  float array -> float array -> float array -> int -> int -> unit
  = "nv_gemv_t"
[@@noalloc]

external ger_k :
  float array -> float array -> float array -> int -> int -> unit = "nv_ger"
[@@noalloc]

let check_mat what (m : mat) =
  if m.rows < 0 || m.cols < 0 || Array.length m.data <> m.rows * m.cols then
    invalid_arg (what ^ ": matrix data does not match its shape")

(** y = M x   (M : rows x cols, x : cols, y : rows) *)
let gemv (m : mat) (x : vec) (y : vec) : unit =
  check_mat "gemv" m;
  if Array.length x <> m.cols || Array.length y <> m.rows then
    invalid_arg "gemv: dimension mismatch";
  gemv_k m.data x y m.rows m.cols

(** y = Mᵀ x   (x : rows, y : cols); rows with [x.(i) = 0.0] add nothing *)
let gemv_t (m : mat) (x : vec) (y : vec) : unit =
  check_mat "gemv_t" m;
  if Array.length x <> m.rows || Array.length y <> m.cols then
    invalid_arg "gemv_t: dimension mismatch";
  gemv_t_k m.data x y m.rows m.cols

(** M += x yᵀ  (outer-product accumulate; x : rows, y : cols); rows with
    [x.(i) = 0.0] are skipped *)
let ger (m : mat) (x : vec) (y : vec) : unit =
  check_mat "ger" m;
  if Array.length x <> m.rows || Array.length y <> m.cols then
    invalid_arg "ger: dimension mismatch";
  ger_k m.data x y m.rows m.cols

let axpy ~(alpha : float) (x : vec) (y : vec) : unit =
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let dot (a : vec) (b : vec) : float =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let add_inplace (dst : vec) (src : vec) : unit = axpy ~alpha:1.0 src dst

(* ------------------------------------------------------------------ *)
(* Nonlinearities                                                       *)
(* ------------------------------------------------------------------ *)

let tanh_fwd (v : vec) : vec = Array.map tanh v

(** given y = tanh(x) and dL/dy, returns dL/dx *)
let tanh_bwd (y : vec) (dy : vec) : vec =
  Array.init (Array.length y) (fun i -> dy.(i) *. (1.0 -. (y.(i) *. y.(i))))

let relu_fwd (v : vec) : vec = Array.map (fun x -> if x > 0.0 then x else 0.0) v

let relu_bwd (y : vec) (dy : vec) : vec =
  Array.init (Array.length y) (fun i -> if y.(i) > 0.0 then dy.(i) else 0.0)

(** Numerically-stable softmax. *)
let softmax (v : vec) : vec =
  let m = Array.fold_left max neg_infinity v in
  let e = Array.map (fun x -> exp (x -. m)) v in
  let s = Array.fold_left ( +. ) 0.0 e in
  Array.map (fun x -> x /. s) e

let log_softmax (v : vec) : vec =
  let m = Array.fold_left max neg_infinity v in
  let s = Array.fold_left (fun acc x -> acc +. exp (x -. m)) 0.0 v in
  let logz = m +. log s in
  Array.map (fun x -> x -. logz) v

exception Bad_probability of string
(** A probability vector handed to {!sample} was not one: NaN/infinite
    entries, negative mass, or total mass well short of the sampled
    uniform.  A diverged policy surfaces as this error instead of
    silently biasing every deficient draw onto the last action. *)

(** {!sample} with the uniform draw supplied by the caller (so batched
    rollouts can pre-draw the RNG stream in the serial order and apply it
    later).  Selection replicates the historical scan exactly — first
    index whose running sum exceeds [u] — for any valid distribution. *)
let sample_u ~(u : float) (probs : vec) : int =
  let n = Array.length probs in
  if n = 0 then raise (Bad_probability "sample: empty probability vector");
  let acc = ref 0.0 and idx = ref (-1) in
  for i = 0 to n - 1 do
    let p = probs.(i) in
    if not (Float.is_finite p) || p < 0.0 then
      raise
        (Bad_probability
           (Printf.sprintf "sample: probs.(%d) = %h is not a probability" i p));
    acc := !acc +. p;
    if !idx < 0 && u < !acc then idx := i
  done;
  if !idx >= 0 then !idx
  else if !acc < 1.0 -. 1e-6 then
    (* rounding can leave the total a few ulps under 1.0 with u just
       above it — that is fine and falls through to the last index, as
       the scan always did; a *deficient* distribution is an error *)
    raise
      (Bad_probability
         (Printf.sprintf "sample: total mass %h < 1 (u = %h)" !acc u))
  else n - 1

(** Sample an index from a probability vector. *)
let sample (rng : Rng.t) (probs : vec) : int =
  sample_u ~u:(Rng.float rng) probs

let argmax (v : vec) : int =
  let best = ref 0 in
  Array.iteri (fun i x -> if x > v.(!best) then best := i) v;
  !best
