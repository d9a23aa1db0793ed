(** A multi-layer perceptron with tanh (or relu) hidden activations.

    [forward_cached] returns the per-layer activations needed by
    [backward]; the paper's policy trunk is the 64x64 tanh FCNN this
    module instantiates. *)

type activation = Tanh | Relu | Linear

type t = { layers : Dense.t list; act : activation }

(** [create rng ~dims ~act] builds a stack with [dims = [in; h1; ...; out]];
    the activation is applied after every layer except the last. *)
let create (rng : Rng.t) ~(dims : int list) ~(act : activation) : t =
  let rec build = function
    | a :: (b :: _ as rest) ->
        Dense.create rng ~in_dim:a ~out_dim:b :: build rest
    | _ -> []
  in
  { layers = build dims; act }

let act_fwd (act : activation) (v : Tensor.vec) : Tensor.vec =
  match act with
  | Tanh -> Tensor.tanh_fwd v
  | Relu -> Tensor.relu_fwd v
  | Linear -> v

let act_bwd (act : activation) ~(y : Tensor.vec) ~(dy : Tensor.vec) : Tensor.vec
    =
  match act with
  | Tanh -> Tensor.tanh_bwd y dy
  | Relu -> Tensor.relu_bwd y dy
  | Linear -> dy

(** Layer inputs + post-activation outputs, cached for the backward pass. *)
type cache = { inputs : Tensor.vec list; output : Tensor.vec }

let forward_cached (t : t) (x : Tensor.vec) : cache =
  let n = List.length t.layers in
  let rec go i x acc = function
    | [] -> { inputs = List.rev acc; output = x }
    | l :: rest ->
        let y = Dense.forward l x in
        let y = if i < n - 1 then act_fwd t.act y else y in
        go (i + 1) y (x :: acc) rest
  in
  go 0 x [] t.layers

let forward (t : t) (x : Tensor.vec) : Tensor.vec = (forward_cached t x).output

(** Per-layer buffers of a batched forward: [inputs.(i)] holds layer
    [i]'s input rows (post-activation output of layer [i-1]), [output]
    the last layer's rows — arena slots valid until the same slots are
    used again. *)
type rows_cache = { inputs : Batch.buf array; output : Batch.buf }

let layer_slot = Printf.sprintf "mlp.%d"

(** Batched forward: [rows] row-major inputs in [x], activation between
    layers but not after the last, exactly as {!forward_cached}.  Each
    layer writes its own arena slot, so the cache serves
    {!backward_rows}; [output] is [x] itself for an empty stack. *)
let forward_rows (t : t) (arena : Batch.arena) ~(x : Batch.buf)
    ~(rows : int) : rows_cache =
  let n = List.length t.layers in
  let inputs = Array.make n x in
  let rec go i x = function
    | [] -> { inputs; output = x }
    | (l : Dense.t) :: rest ->
        inputs.(i) <- x;
        let y = Batch.slot arena (layer_slot i) (rows * l.Dense.out_dim) in
        Dense.forward_rows l ~x ~y ~rows;
        (if i < n - 1 then
           let len = rows * l.Dense.out_dim in
           match t.act with
           | Tanh -> Batch.tanh_inplace y ~len
           | Relu -> Batch.relu_inplace y ~len
           | Linear -> ());
        go (i + 1) y rest
  in
  go 0 x t.layers

(** Backpropagate dL/d(output); accumulates layer gradients and returns
    dL/d(input). Must be called with the cache produced by
    [forward_cached] on the same input. *)
let backward (t : t) (c : cache) ~(dout : Tensor.vec) : Tensor.vec =
  let n = List.length t.layers in
  let layers = Array.of_list t.layers in
  let inputs = Array.of_list c.inputs in
  let dy = ref dout in
  for i = n - 1 downto 0 do
    (* undo the activation (applied after every layer but the last);
       layer i's post-activation output is layer i+1's cached input *)
    if i < n - 1 then dy := act_bwd t.act ~y:inputs.(i + 1) ~dy:!dy;
    dy := Dense.backward layers.(i) ~x:inputs.(i) ~dy:!dy
  done;
  !dy

(** {!backward} for all [rows] rows of a {!forward_rows} pass at
    once, layer by layer: every gradient element receives the per-row
    additions in row order, so the gradients are bit-identical to calling
    {!backward} row by row.  Returns the dL/d(input) rows — an arena
    slot, or [dout] itself for an empty stack. *)
let backward_rows (t : t) (arena : Batch.arena) (c : rows_cache)
    ~(dout : Batch.buf) ~(rows : int) : Batch.buf =
  let n = List.length t.layers in
  let layers = Array.of_list t.layers in
  let dy = ref dout in
  for i = n - 1 downto 0 do
    let l = layers.(i) in
    (if i < n - 1 then
       (* layer i's post-activation output is layer i+1's input *)
       let y = c.inputs.(i + 1) and d = !dy in
       for k = 0 to (rows * l.Dense.out_dim) - 1 do
         let yk = Batch.get y k and dk = Batch.get d k in
         Batch.set d k
           (match t.act with
           | Tanh -> dk *. (1.0 -. (yk *. yk))
           | Relu -> if yk > 0.0 then dk else 0.0
           | Linear -> dk)
       done);
    let dx =
      Batch.slot arena
        (if i land 1 = 0 then "mlp.d0" else "mlp.d1")
        (rows * l.Dense.in_dim)
    in
    Dense.backward_rows l ~x:c.inputs.(i) ~dy:!dy ~dx ~rows;
    dy := dx
  done;
  !dy

let params (t : t) : Optim.params =
  List.concat_map Dense.params t.layers

let zero_grad (t : t) : unit = List.iter Dense.zero_grad t.layers
