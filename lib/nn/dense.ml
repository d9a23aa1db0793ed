(** A fully-connected layer [y = W x + b] with gradient accumulation.

    Layers are stateless with respect to inputs: [forward] returns the
    output and [backward] takes the cached input back, so one layer object
    can serve many samples within a batch (gradients accumulate until
    [zero_grad]). *)

type t = {
  w : Tensor.mat;
  b : Tensor.vec;
  gw : Tensor.mat;
  gb : Tensor.vec;
  in_dim : int;
  out_dim : int;
}

let create (rng : Rng.t) ~in_dim ~out_dim : t =
  {
    w = Tensor.mat_xavier rng out_dim in_dim;
    b = Tensor.vec_create out_dim;
    gw = Tensor.mat_create out_dim in_dim;
    gb = Tensor.vec_create out_dim;
    in_dim;
    out_dim;
  }

let forward (l : t) (x : Tensor.vec) : Tensor.vec =
  let y = Tensor.vec_create l.out_dim in
  Tensor.gemv l.w x y;
  Tensor.add_inplace y l.b;
  y

(** Batched {!forward} over [rows] row-major rows of [x] into [y]
    (preallocated scratch; see {!Batch}).  Bit-identical per row to
    {!forward}. *)
let forward_rows (l : t) ~(x : Batch.buf) ~(y : Batch.buf) ~(rows : int) :
    unit =
  Batch.dense_rows ~w:l.w ~b:l.b ~x ~y ~rows

(** Accumulate gradients for one sample; returns dL/dx. *)
let backward (l : t) ~(x : Tensor.vec) ~(dy : Tensor.vec) : Tensor.vec =
  Tensor.ger l.gw dy x;
  Tensor.add_inplace l.gb dy;
  let dx = Tensor.vec_create l.in_dim in
  Tensor.gemv_t l.w dy dx;
  dx

(** Batched {!backward} over [rows] rows of [dy] (inputs [x]): gradients
    accumulate in row order, bit-identical to calling {!backward} row by
    row; dL/dx rows go to [dx]. *)
let backward_rows (l : t) ~(x : Batch.buf) ~(dy : Batch.buf) ~(dx : Batch.buf)
    ~(rows : int) : unit =
  Batch.ger_rows l.gw ~dy ~x ~rows;
  for r = 0 to rows - 1 do
    let base = r * l.out_dim in
    for o = 0 to l.out_dim - 1 do
      l.gb.(o) <- l.gb.(o) +. (1.0 *. Batch.get dy (base + o))
    done
  done;
  Batch.gemv_t_rows l.w ~dy ~dx ~rows

let zero_grad (l : t) : unit =
  Tensor.mat_fill_zero l.gw;
  Tensor.fill_zero l.gb

(** Parameters and their gradients, flattened for the optimizer. *)
let params (l : t) : (Tensor.vec * Tensor.vec) list =
  [ (l.w.Tensor.data, l.gw.Tensor.data); (l.b, l.gb) ]
