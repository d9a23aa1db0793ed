(** Batched kernels over contiguous [Bigarray] float64 buffers — the
    forward rows of inference and of the PPO minibatch update, and the
    row-wise gradient kernels of its backward — plus the per-domain
    scratch arena that makes the steady-state hot loop allocation-free.

    {b Exactness contract.}  Every kernel here replicates the scalar
    path's floating-point operation order exactly — one accumulator per
    output element, k-sequential accumulation, bias added after the dot,
    elementwise nonlinearities, softmax as max-fold / exp-map / sum-fold /
    divide in index order, gradient rows added in row order with the
    zero-row skip — so a batched pass is {e bit-identical} to the
    per-sample chain it replaces ([Tensor.gemv] + [add_inplace] +
    [tanh_fwd] + [softmax] forward, [Tensor.ger] + [gemv_t] backward).
    The matrix loops ([dense_rows], [ger_rows], [gemv_t_rows]) run in
    kernels.c, vectorized across independent output elements only:
    [dense_rows] in axpy form over a transposed copy of [W] (an arena
    slot), so each output keeps its own k-sequential accumulator,
    [ger_rows] and [gemv_t_rows] with a register tile of outputs that
    receives its row additions in order.  One C source is compiled per
    ISA (baseline, AVX2, AVX-512) and the widest the CPU runs is picked
    at load time; with no FMA contraction, fast-math or reassociation,
    every variant gives the same bits.  The differential suites — the
    batched.* test groups, run under every variant the host can execute
    — and the frozen checkpoint digest enforce this; do not "optimize" a
    kernel into a different summation order.

    Buffers are float64 ([Tensor] is [float array], i.e. double): a
    float32 layout would be smaller but would round every intermediate
    and break the bit-identity gate against the scalar path.

    {b Arena.}  [slot] returns a named scratch buffer of at least the
    requested length, growing (never shrinking) on demand; steady state
    reuses the same backing store call after call.  Each domain owns one
    arena via [Domain.DLS], so pool workers never share scratch and the
    kernels need no locks. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create (n : int) : buf =
  Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (max 1 n)

type arena = {
  mutable slots : (string * buf) list;
  mutable int_slots : (string * int array) list;
  mutable float_slots : (string * float array) list;
  table : (int, int) Hashtbl.t;
      (** shared int-keyed scratch table (e.g. context dedup); callers
          [Hashtbl.reset] it before use *)
}

let create_arena () : arena =
  { slots = []; int_slots = []; float_slots = []; table = Hashtbl.create 256 }

(** Drop every buffer (the "cold" state: the next forward re-allocates). *)
let reset (a : arena) : unit =
  a.slots <- [];
  a.int_slots <- [];
  a.float_slots <- [];
  Hashtbl.reset a.table

(* grow to ~1.5x the request so a slowly-increasing batch size does not
   reallocate on every call *)
let grown (n : int) : int = n + (n / 2)

(** Named scratch buffer with capacity >= [len]; contents unspecified. *)
let slot (a : arena) (name : string) (len : int) : buf =
  match List.assoc_opt name a.slots with
  | Some b when Bigarray.Array1.dim b >= len -> b
  | _ ->
      let b = create (grown len) in
      a.slots <- (name, b) :: List.remove_assoc name a.slots;
      b

let int_slot (a : arena) (name : string) (len : int) : int array =
  match List.assoc_opt name a.int_slots with
  | Some b when Array.length b >= len -> b
  | _ ->
      let b = Array.make (max 1 (grown len)) 0 in
      a.int_slots <- (name, b) :: List.remove_assoc name a.int_slots;
      b

let float_slot (a : arena) (name : string) (len : int) : float array =
  match List.assoc_opt name a.float_slots with
  | Some b when Array.length b >= len -> b
  | _ ->
      let b = Array.make (max 1 (grown len)) 0.0 in
      a.float_slots <- (name, b) :: List.remove_assoc name a.float_slots;
      b

(* one arena per domain: pool workers get their own scratch, and a serial
   caller reuses the same warm buffers across calls *)
let dls_arena : arena Domain.DLS.key = Domain.DLS.new_key create_arena

let domain_arena () : arena = Domain.DLS.get dls_arena

let reset_domain_arena () : unit = reset (domain_arena ())

(* ------------------------------------------------------------------ *)
(* Kernels                                                              *)
(* ------------------------------------------------------------------ *)

external get : buf -> int -> float = "%caml_ba_unsafe_ref_1"
external set : buf -> int -> float -> unit = "%caml_ba_unsafe_set_1"

external dense_rows_k :
  float array -> float array -> buf -> buf -> buf -> int -> int -> int -> unit
  = "nv_dense_rows_byte" "nv_dense_rows"
[@@noalloc]

external ger_rows_k :
  float array -> buf -> buf -> int array option -> int -> int -> int -> unit
  = "nv_ger_rows_byte" "nv_ger_rows"
[@@noalloc]

external gemv_t_rows_k :
  float array -> buf -> buf -> int -> int -> int -> unit
  = "nv_gemv_t_rows_byte" "nv_gemv_t_rows"
[@@noalloc]

(* the kernel variants of kernels.c: [0 .. isa_count () - 1] run on this
   CPU, widest last *)
external isa_count : unit -> int = "nv_isa_count" [@@noalloc]
external isa_name : int -> string = "nv_isa_name"
external isa_current : unit -> int = "nv_isa_current" [@@noalloc]
external isa_select : int -> unit = "nv_isa_select" [@@noalloc]

(** For the differential tests: the kernel variants this CPU can execute,
    and a way to run code under one of them.  Nothing else selects a
    variant. *)
module For_testing = struct
  (** The variant the native kernels dispatched to: ["avx512"], ["avx2"]
      or ["default"] (SSE2 on x86-64, plain C elsewhere).  Every variant
      gives the same bits. *)
  let isa () : string = isa_name (isa_current ())

  (** Every variant this CPU can execute, widest last. *)
  let variants () : string list = List.init (isa_count ()) isa_name

  (** [with_isa name f] runs [f] with every native kernel dispatched to
      variant [name], then restores the previous one.  The selection is
      process-wide: pool domains inside [f] use it too, and it must not
      change while kernels run elsewhere. *)
  let with_isa (name : string) (f : unit -> 'a) : 'a =
    let rec find i =
      if i >= isa_count () then invalid_arg ("Batch.with_isa: " ^ name)
      else if isa_name i = name then i
      else find (i + 1)
    in
    let prev = isa_current () in
    isa_select (find 0);
    Fun.protect ~finally:(fun () -> isa_select prev) f
end

let check_rows what ~(rows : int) (b : buf) ~(width : int) =
  if rows < 0 || Bigarray.Array1.dim b < rows * width then
    invalid_arg (what ^ ": dimension mismatch")

(** [y(r) = W x(r) + b] for [rows] row-major rows — the matrix-matrix
    form of [Dense.forward], in kernels.c.  Per output element: one
    accumulator, the k-order of [Tensor.gemv], then [acc +. b.(o)], which
    is bit-equal to gemv-then-[add_inplace].  The kernel transposes [W]
    into this domain's arena, so it allocates nothing itself. *)
let dense_rows ~(w : Tensor.mat) ~(b : Tensor.vec) ~(x : buf) ~(y : buf)
    ~(rows : int) : unit =
  let in_dim = w.Tensor.cols and out_dim = w.Tensor.rows in
  Tensor.check_mat "Batch.dense_rows" w;
  check_rows "Batch.dense_rows" ~rows x ~width:in_dim;
  check_rows "Batch.dense_rows" ~rows y ~width:out_dim;
  if Array.length b <> out_dim then
    invalid_arg "Batch.dense_rows: dimension mismatch";
  (* scratch for the kernel's transposed weights: [in_dim] rows of
     [out_dim] padded to a multiple of 8, the widest vector *)
  let wt =
    slot (domain_arena ()) "Batch.dense_rows.wt"
      (in_dim * ((out_dim + 7) land lnot 7))
  in
  dense_rows_k w.Tensor.data b x y wt rows in_dim out_dim

(** [g += dy(r) x(ix(r))ᵀ] for [r = 0 .. rows-1] ([ix] defaults to
    the identity): every element of [g] receives the additions of [rows]
    successive [Tensor.ger] calls, in row order, with the same zero-row
    skip — so the result is bit-identical to that loop.  [g] is
    [out_dim x in_dim], [dy] has [rows] rows of [out_dim], [x] rows of
    [in_dim]. *)
let ger_rows ?ix (g : Tensor.mat) ~(dy : buf) ~(x : buf) ~(rows : int) : unit
    =
  let out_dim = g.Tensor.rows and in_dim = g.Tensor.cols in
  Tensor.check_mat "Batch.ger_rows" g;
  check_rows "Batch.ger_rows" ~rows dy ~width:out_dim;
  (match ix with
  | None -> check_rows "Batch.ger_rows" ~rows x ~width:in_dim
  | Some ix ->
      if Array.length ix < rows then
        invalid_arg "Batch.ger_rows: dimension mismatch";
      let xrows =
        if in_dim = 0 then max_int else Bigarray.Array1.dim x / in_dim
      in
      for r = 0 to rows - 1 do
        if ix.(r) < 0 || ix.(r) >= xrows then
          invalid_arg "Batch.ger_rows: row index out of range"
      done);
  ger_rows_k g.Tensor.data dy x ix rows out_dim in_dim

(** [dx(r) = Wᵀ dy(r)] for [rows] rows — [Tensor.gemv_t] row by row. *)
let gemv_t_rows (w : Tensor.mat) ~(dy : buf) ~(dx : buf) ~(rows : int) : unit
    =
  let out_dim = w.Tensor.rows and in_dim = w.Tensor.cols in
  Tensor.check_mat "Batch.gemv_t_rows" w;
  check_rows "Batch.gemv_t_rows" ~rows dy ~width:out_dim;
  check_rows "Batch.gemv_t_rows" ~rows dx ~width:in_dim;
  gemv_t_rows_k w.Tensor.data dy dx rows out_dim in_dim

(** Elementwise [tanh] over the first [len] entries, in place — the
    batched [Tensor.tanh_fwd]. *)
let tanh_inplace (x : buf) ~(len : int) : unit =
  for i = 0 to len - 1 do
    set x i (tanh (get x i))
  done

(** Elementwise relu over the first [len] entries, in place. *)
let relu_inplace (x : buf) ~(len : int) : unit =
  for i = 0 to len - 1 do
    let v = get x i in
    set x i (if v > 0.0 then v else 0.0)
  done

(** Dot of buffer row [x[off .. off+len)] with a plain vector, in the
    sequential order of [Tensor.dot]. *)
let dot_row (x : buf) ~(off : int) (v : Tensor.vec) : float =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. (get x (off + i) *. Array.unsafe_get v i)
  done;
  !acc

(** In-place softmax over [s.(0 .. n-1)], replicating [Tensor.softmax]'s
    operation order (max-fold, exp, sum-fold, divide — all in index
    order) so the resulting probabilities are bit-identical. *)
let softmax_inplace (s : float array) ~(n : int) : unit =
  let m = ref neg_infinity in
  for i = 0 to n - 1 do
    if s.(i) > !m then m := s.(i)
  done;
  (* NB [Array.fold_left max] over floats: max neg_infinity x = x, and a
     strictly increasing scan keeps the first maximum — [>] matches *)
  for i = 0 to n - 1 do
    s.(i) <- exp (s.(i) -. !m)
  done;
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. s.(i)
  done;
  for i = 0 to n - 1 do
    s.(i) <- s.(i) /. !sum
  done

(** [dst_row += alpha * src_row] over [len] entries ([Tensor.axpy] on
    buffer rows). *)
let axpy_row ~(alpha : float) ~(src : buf) ~(src_off : int) ~(dst : buf)
    ~(dst_off : int) ~(len : int) : unit =
  for j = 0 to len - 1 do
    set dst (dst_off + j) (get dst (dst_off + j) +. (alpha *. get src (src_off + j)))
  done

let fill_zero_row (x : buf) ~(off : int) ~(len : int) : unit =
  for j = 0 to len - 1 do
    set x (off + j) 0.0
  done

(** Copy a [Tensor.mat] row into a buffer row (embedding-table gather). *)
let blit_mat_row ~(src : Tensor.mat) ~(row : int) ~(dst : buf)
    ~(dst_off : int) : unit =
  let base = row * src.Tensor.cols in
  for j = 0 to src.Tensor.cols - 1 do
    set dst (dst_off + j) (Array.unsafe_get src.Tensor.data (base + j))
  done

(** Extract a buffer row into a fresh [Tensor.vec] (the batched-to-scalar
    boundary, e.g. per-sample policy logits handed to the distribution
    code). *)
let row_to_vec (x : buf) ~(off : int) ~(len : int) : Tensor.vec =
  Array.init len (fun j -> get x (off + j))
