(** The policy/value network: code2vec embedding -> FCNN trunk -> policy and
    value heads, differentiable end to end.

    The trunk defaults to the paper's 64x64 tanh network. The policy head's
    shape depends on the action-space encoding (see {!Spaces}); continuous
    encodings carry a state-independent learnable log-std, as RLlib's PPO
    does. *)

type t = {
  space : Spaces.kind;
  c2v : Embedding.Code2vec.t;
  trunk : Nn.Mlp.t;
  head_pi : Nn.Dense.t;
  head_v : Nn.Dense.t;
  log_std : Nn.Tensor.vec;
  g_log_std : Nn.Tensor.vec;
  rng : Nn.Rng.t;
}

let pi_dim = function
  | Spaces.Discrete -> Spaces.n_vf + Spaces.n_if
  | Spaces.Continuous1 -> 1
  | Spaces.Continuous2 -> 2

let create ?(hidden = [ 64; 64 ]) ?(c2v_cfg = Embedding.Code2vec.default_config)
    ~(space : Spaces.kind) (rng : Nn.Rng.t) : t =
  let c2v = Embedding.Code2vec.create ~cfg:c2v_cfg rng in
  let d_code = c2v_cfg.Embedding.Code2vec.d_code in
  let h_out = match List.rev hidden with h :: _ -> h | [] -> d_code in
  let trunk = Nn.Mlp.create rng ~dims:(d_code :: hidden) ~act:Nn.Mlp.Tanh in
  let n_std = match space with Spaces.Continuous1 -> 1 | Spaces.Continuous2 -> 2 | Spaces.Discrete -> 0 in
  {
    space;
    c2v;
    trunk;
    head_pi = Nn.Dense.create rng ~in_dim:h_out ~out_dim:(pi_dim space);
    head_v = Nn.Dense.create rng ~in_dim:h_out ~out_dim:1;
    log_std = Array.make (max 1 n_std) 0.0;
    g_log_std = Array.make (max 1 n_std) 0.0;
    rng;
  }

(* ------------------------------------------------------------------ *)
(* Forward                                                              *)
(* ------------------------------------------------------------------ *)

type fwd = {
  emb : Embedding.Code2vec.cache;
  trunk_cache : Nn.Mlp.cache;
  trunk_out : Nn.Tensor.vec;  (** tanh applied *)
  pi : Nn.Tensor.vec;
  v : float;
}

let forward (t : t) (ids : Embedding.Code2vec.ids array) : fwd =
  let emb = Embedding.Code2vec.forward_ids t.c2v ids in
  let trunk_cache = Nn.Mlp.forward_cached t.trunk emb.Embedding.Code2vec.code in
  let trunk_out = Nn.Tensor.tanh_fwd trunk_cache.Nn.Mlp.output in
  let pi = Nn.Dense.forward t.head_pi trunk_out in
  let v = (Nn.Dense.forward t.head_v trunk_out).(0) in
  { emb; trunk_cache; trunk_out; pi; v }

(* ------------------------------------------------------------------ *)
(* Batched forward                                                      *)
(* ------------------------------------------------------------------ *)

(** One arena-backed batched forward over many snippets, keeping what
    {!backward_rows} needs: the embedding pass, every trunk layer's
    input rows and the tanh'd trunk output.  Buffers are slots of the
    calling domain's arena, valid until its next batched forward.  Row
    [i] of [pis]/[vs] is bit-identical to [forward]'s [pi]/[v]. *)
type rows = {
  n : int;
  emb : Embedding.Code2vec.rows;
  trunk_cache : Nn.Mlp.rows_cache;
  trunk_out : Nn.Batch.buf;  (** [n x h_out], tanh applied *)
  pis : Nn.Batch.buf;  (** [n x pi_dim] policy head rows *)
  vs : Nn.Batch.buf;  (** [n] values *)
}

let forward_rows (t : t) (idss : Embedding.Code2vec.ids array array) : rows =
  let arena = Nn.Batch.domain_arena () in
  let n = Array.length idss in
  let emb = Embedding.Code2vec.forward_rows t.c2v arena idss in
  let trunk_cache =
    Nn.Mlp.forward_rows t.trunk arena ~x:emb.Embedding.Code2vec.codes
      ~rows:n
  in
  let trunk_out = trunk_cache.Nn.Mlp.output in
  let h_out = t.head_pi.Nn.Dense.in_dim in
  Nn.Batch.tanh_inplace trunk_out ~len:(n * h_out);
  let pis = Nn.Batch.slot arena "agent.pi" (n * t.head_pi.Nn.Dense.out_dim) in
  Nn.Dense.forward_rows t.head_pi ~x:trunk_out ~y:pis ~rows:n;
  let vs = Nn.Batch.slot arena "agent.v" (max 1 n) in
  Nn.Dense.forward_rows t.head_v ~x:trunk_out ~y:vs ~rows:n;
  { n; emb; trunk_cache; trunk_out; pis; vs }

(** Policy logits of row [i] of a {!forward_rows} pass. *)
let pi_row (t : t) (r : rows) (i : int) : Nn.Tensor.vec =
  let pd = t.head_pi.Nn.Dense.out_dim in
  Nn.Batch.row_to_vec r.pis ~off:(i * pd) ~len:pd

(* the batched forward over one chunk, materialized at the boundary as
   per-snippet (policy logits, value) *)
let forward_chunk (t : t) (idss : Embedding.Code2vec.ids array array) :
    (Nn.Tensor.vec * float) array =
  let r = forward_rows t idss in
  Array.init r.n (fun i -> (pi_row t r i, Nn.Batch.get r.vs i))

(* shard [0, n) into [jobs] contiguous chunks and run [f] per chunk via
   [map] — rows are computed independently, so any shard count produces
   the same bits *)
let sharded ~(jobs : int) ~map (f : 'a array -> 'b array) (xs : 'a array) :
    'b array =
  let n = Array.length xs in
  if jobs <= 1 || n < 2 then f xs
  else begin
    let chunk = (n + jobs - 1) / jobs in
    let nchunks = (n + chunk - 1) / chunk in
    let parts =
      map
        (fun ci ->
          f (Array.sub xs (ci * chunk) (min chunk (n - (ci * chunk)))))
        (Array.init nchunks Fun.id)
    in
    Array.concat (Array.to_list parts)
  end

(** Batched {!forward} for inference: per-snippet (policy logits, value),
    each bit-identical to the scalar [forward].  [jobs]/[map] inject a
    parallel map (e.g. [Parpool.map], which this library cannot depend
    on) to shard the batch across domains; the default is serial. *)
let forward_batch ?(jobs = 1) ?(map = fun f xs -> Array.map f xs) (t : t)
    (idss : Embedding.Code2vec.ids array array) :
    (Nn.Tensor.vec * float) array =
  sharded ~jobs ~map (forward_chunk t) idss

(* ------------------------------------------------------------------ *)
(* Distributions                                                        *)
(* ------------------------------------------------------------------ *)

(** An action together with the raw sample needed to re-evaluate its
    log-probability under an updated policy. *)
type taken = { act : Spaces.action; raw : float array; logp : float }

let split_logits (pi : Nn.Tensor.vec) =
  (Array.sub pi 0 Spaces.n_vf, Array.sub pi Spaces.n_vf Spaces.n_if)

let gauss_logp ~mu ~log_std x =
  let sigma = exp log_std in
  let z = (x -. mu) /. sigma in
  (-0.5 *. z *. z) -. log_std -. (0.5 *. log (2.0 *. Float.pi))

(** The RNG consumption of one {!sample}, drawn eagerly in the serial
    stream order.  Batched rollouts pick a sample and [draw] per step —
    consuming the stream exactly as the scalar loop would — then run one
    whole-batch forward and apply each draw with {!sample_with}, so the
    checkpointed RNG state and every action stay bit-identical. *)
type draw =
  | Uniform2 of float * float  (** Discrete: one uniform per factor *)
  | Normals of float array  (** Continuous: one standard normal per dim *)

let draw (t : t) : draw =
  match t.space with
  | Spaces.Discrete ->
      let u_vf = Nn.Rng.float t.rng in
      let u_if = Nn.Rng.float t.rng in
      Uniform2 (u_vf, u_if)
  | Spaces.Continuous1 -> Normals [| Nn.Rng.normal t.rng |]
  | Spaces.Continuous2 ->
      let n0 = Nn.Rng.normal t.rng in
      let n1 = Nn.Rng.normal t.rng in
      Normals [| n0; n1 |]

(** {!sample} with the randomness supplied up front ([pi] is the policy
    head output for the snippet). *)
let sample_with (t : t) ~(pi : Nn.Tensor.vec) (d : draw) : taken =
  match (t.space, d) with
  | Spaces.Discrete, Uniform2 (u_vf, u_if) ->
      let zv, zi = split_logits pi in
      let pv = Nn.Tensor.softmax zv and pi_ = Nn.Tensor.softmax zi in
      let vf_idx = Nn.Tensor.sample_u ~u:u_vf pv in
      let if_idx = Nn.Tensor.sample_u ~u:u_if pi_ in
      let lv = Nn.Tensor.log_softmax zv and li = Nn.Tensor.log_softmax zi in
      { act = { Spaces.vf_idx; if_idx }; raw = [||];
        logp = lv.(vf_idx) +. li.(if_idx) }
  | Spaces.Continuous1, Normals ns ->
      let mu = pi.(0) in
      let x = mu +. (exp t.log_std.(0) *. ns.(0)) in
      { act = Spaces.of_flat (int_of_float (Float.round x));
        raw = [| x |];
        logp = gauss_logp ~mu ~log_std:t.log_std.(0) x }
  | Spaces.Continuous2, Normals ns ->
      let x0 = pi.(0) +. (exp t.log_std.(0) *. ns.(0)) in
      let x1 = pi.(1) +. (exp t.log_std.(1) *. ns.(1)) in
      { act =
          { Spaces.vf_idx = Spaces.clamp_idx ~n:Spaces.n_vf x0;
            if_idx = Spaces.clamp_idx ~n:Spaces.n_if x1 };
        raw = [| x0; x1 |];
        logp =
          gauss_logp ~mu:pi.(0) ~log_std:t.log_std.(0) x0
          +. gauss_logp ~mu:pi.(1) ~log_std:t.log_std.(1) x1 }
  | _ -> invalid_arg "Agent.sample_with: draw does not match the action space"

(** Sample an action from the policy output. *)
let sample (t : t) (f : fwd) : taken = sample_with t ~pi:f.pi (draw t)

(** Log-probability of a previously-taken action under the current
    policy, given its policy head output [pi]. *)
let logp (t : t) (pi : Nn.Tensor.vec) (tk : taken) : float =
  match t.space with
  | Spaces.Discrete ->
      let zv, zi = split_logits pi in
      let lv = Nn.Tensor.log_softmax zv and li = Nn.Tensor.log_softmax zi in
      lv.(tk.act.Spaces.vf_idx) +. li.(tk.act.Spaces.if_idx)
  | Spaces.Continuous1 ->
      gauss_logp ~mu:pi.(0) ~log_std:t.log_std.(0) tk.raw.(0)
  | Spaces.Continuous2 ->
      gauss_logp ~mu:pi.(0) ~log_std:t.log_std.(0) tk.raw.(0)
      +. gauss_logp ~mu:pi.(1) ~log_std:t.log_std.(1) tk.raw.(1)

let entropy (t : t) (pi : Nn.Tensor.vec) : float =
  match t.space with
  | Spaces.Discrete ->
      let h z =
        let p = Nn.Tensor.softmax z and lp = Nn.Tensor.log_softmax z in
        let acc = ref 0.0 in
        Array.iteri (fun i pi_ -> acc := !acc -. (pi_ *. lp.(i))) p;
        !acc
      in
      let zv, zi = split_logits pi in
      h zv +. h zi
  | Spaces.Continuous1 ->
      0.5 *. (1.0 +. log (2.0 *. Float.pi)) +. t.log_std.(0)
  | Spaces.Continuous2 ->
      (1.0 +. log (2.0 *. Float.pi)) +. t.log_std.(0) +. t.log_std.(1)

(** Deterministic (inference-time) action. *)
let predict (t : t) (ids : Embedding.Code2vec.ids array) : Spaces.action =
  let f = forward t ids in
  match t.space with
  | Spaces.Discrete ->
      let zv, zi = split_logits f.pi in
      { Spaces.vf_idx = Nn.Tensor.argmax zv; if_idx = Nn.Tensor.argmax zi }
  | Spaces.Continuous1 -> Spaces.of_flat (int_of_float (Float.round f.pi.(0)))
  | Spaces.Continuous2 ->
      { Spaces.vf_idx = Spaces.clamp_idx ~n:Spaces.n_vf f.pi.(0);
        if_idx = Spaces.clamp_idx ~n:Spaces.n_if f.pi.(1) }

(* first strict maximum over a buffer segment — [Tensor.argmax]'s rule *)
let argmax_seg (b : Nn.Batch.buf) ~(off : int) ~(len : int) : int =
  let best = ref 0 in
  for i = 0 to len - 1 do
    if Nn.Batch.get b (off + i) > Nn.Batch.get b (off + !best) then best := i
  done;
  !best

(* batched greedy decisions over one chunk, read straight off the
   logits rows *)
let predict_chunk (t : t) (idss : Embedding.Code2vec.ids array array) :
    Spaces.action array =
  let r = forward_rows t idss in
  let pd = t.head_pi.Nn.Dense.out_dim and pi = r.pis in
  Array.init r.n (fun i ->
      let off = i * pd in
      match t.space with
      | Spaces.Discrete ->
          { Spaces.vf_idx = argmax_seg pi ~off ~len:Spaces.n_vf;
            if_idx = argmax_seg pi ~off:(off + Spaces.n_vf) ~len:Spaces.n_if }
      | Spaces.Continuous1 ->
          Spaces.of_flat (int_of_float (Float.round (Nn.Batch.get pi off)))
      | Spaces.Continuous2 ->
          { Spaces.vf_idx =
              Spaces.clamp_idx ~n:Spaces.n_vf (Nn.Batch.get pi off);
            if_idx =
              Spaces.clamp_idx ~n:Spaces.n_if (Nn.Batch.get pi (off + 1)) })

(** Batched {!predict}: one action per snippet, each identical to the
    scalar call; [jobs]/[map] as in {!forward_batch}. *)
let predict_batch ?(jobs = 1) ?(map = fun f xs -> Array.map f xs) (t : t)
    (idss : Embedding.Code2vec.ids array array) : Spaces.action array =
  sharded ~jobs ~map (predict_chunk t) idss

(* ------------------------------------------------------------------ *)
(* Backward                                                             *)
(* ------------------------------------------------------------------ *)

(** Gradient of the policy head output for
    [dlogp_coef * logp + dent_coef * entropy], given the output [pi]. *)
let dpi_of (t : t) (pi : Nn.Tensor.vec) (tk : taken) ~(dlogp_coef : float)
    ~(dent_coef : float) : Nn.Tensor.vec =
  match t.space with
  | Spaces.Discrete ->
      let zv, zi = split_logits pi in
      let grad z idx =
        let p = Nn.Tensor.softmax z in
        let lp = Nn.Tensor.log_softmax z in
        let h = ref 0.0 in
        Array.iteri (fun i pi_ -> h := !h -. (pi_ *. lp.(i))) p;
        Array.init (Array.length z) (fun i ->
            let onehot = if i = idx then 1.0 else 0.0 in
            (dlogp_coef *. (onehot -. p.(i)))
            +. (dent_coef *. (-.p.(i)) *. (lp.(i) +. !h)))
      in
      Array.append (grad zv tk.act.Spaces.vf_idx) (grad zi tk.act.Spaces.if_idx)
  | Spaces.Continuous1 ->
      let sigma = exp t.log_std.(0) in
      let z = (tk.raw.(0) -. pi.(0)) /. sigma in
      t.g_log_std.(0) <-
        t.g_log_std.(0)
        +. (dlogp_coef *. ((z *. z) -. 1.0))
        +. dent_coef;
      [| dlogp_coef *. z /. sigma |]
  | Spaces.Continuous2 ->
      let g k =
        let sigma = exp t.log_std.(k) in
        let z = (tk.raw.(k) -. pi.(k)) /. sigma in
        t.g_log_std.(k) <-
          t.g_log_std.(k)
          +. (dlogp_coef *. ((z *. z) -. 1.0))
          +. dent_coef;
        dlogp_coef *. z /. sigma
      in
      [| g 0; g 1 |]

(* dpi_of is pure chain rule: it returns
   dlogp_coef * dlogp/dpi + dent_coef * dentropy/dpi and accumulates the
   matching log-std terms; the caller chooses the loss sign convention. *)

(** Accumulate gradients for one sample. [dpi] is dLoss/d(policy head
    output) and [dv] is dLoss/d(value).  Training runs {!backward_rows};
    this per-sample form is its reference. *)
let backward (t : t) (f : fwd) ~(dpi : Nn.Tensor.vec) ~(dv : float) : unit =
  let d_trunk = Nn.Tensor.vec_create (Array.length f.trunk_out) in
  let d1 = Nn.Dense.backward t.head_pi ~x:f.trunk_out ~dy:dpi in
  Nn.Tensor.add_inplace d_trunk d1;
  let d2 = Nn.Dense.backward t.head_v ~x:f.trunk_out ~dy:[| dv |] in
  Nn.Tensor.add_inplace d_trunk d2;
  let d_raw = Nn.Tensor.tanh_bwd f.trunk_out d_trunk in
  let d_code = Nn.Mlp.backward t.trunk f.trunk_cache ~dout:d_raw in
  Embedding.Code2vec.backward t.c2v f.emb ~dcode:d_code

(** {!backward} for every row of a {!forward_rows} pass at once:
    [dpi] holds the [n x pi_dim] dLoss/d(policy head) rows, [dv] the [n]
    dLoss/d(value) entries.  Layer by layer, every gradient element
    receives the per-sample additions in sample (then context) order, so
    the gradients are bit-identical to calling {!backward} per sample. *)
let backward_rows (t : t) (r : rows) ~(dpi : Nn.Batch.buf) ~(dv : Nn.Batch.buf)
    : unit =
  let arena = Nn.Batch.domain_arena () in
  let n = r.n and h_out = t.head_pi.Nn.Dense.in_dim in
  let d1 = Nn.Batch.slot arena "agent.d1" (n * h_out) in
  Nn.Dense.backward_rows t.head_pi ~x:r.trunk_out ~dy:dpi ~dx:d1 ~rows:n;
  let d2 = Nn.Batch.slot arena "agent.d2" (n * h_out) in
  Nn.Dense.backward_rows t.head_v ~x:r.trunk_out ~dy:dv ~dx:d2 ~rows:n;
  (* d_raw = tanh_bwd trunk_out (0 + d1 + d2), the scalar chain's order *)
  for k = 0 to (n * h_out) - 1 do
    let d = 0.0 +. (1.0 *. Nn.Batch.get d1 k) in
    let d = d +. (1.0 *. Nn.Batch.get d2 k) in
    let y = Nn.Batch.get r.trunk_out k in
    Nn.Batch.set d1 k (d *. (1.0 -. (y *. y)))
  done;
  let dcodes =
    Nn.Mlp.backward_rows t.trunk arena r.trunk_cache ~dout:d1 ~rows:n
  in
  Embedding.Code2vec.backward_rows t.c2v arena r.emb ~dcodes

let params (t : t) : Nn.Optim.params =
  Embedding.Code2vec.params t.c2v
  @ Nn.Mlp.params t.trunk
  @ Nn.Dense.params t.head_pi
  @ Nn.Dense.params t.head_v
  @ (if t.space = Spaces.Discrete then [] else [ (t.log_std, t.g_log_std) ])

(** Overwrite [dst]'s learnable state in place from [src]: every
    parameter and gradient array and the RNG state.  [src] and [dst]
    must share a shape (e.g. [src] was unmarshalled from a snapshot of
    [dst]).  This is the sentinels' rollback primitive: training mutates
    the caller's agent record, so restoring a known-good snapshot must
    write {e into} that record rather than produce a fresh one. *)
let restore ~(src : t) (dst : t) : unit =
  List.iter2
    (fun (pd, gd) (ps, gs) ->
      Array.blit ps 0 pd 0 (Array.length pd);
      Array.blit gs 0 gd 0 (Array.length gd))
    (params dst) (params src);
  (* log_std rides in params only for continuous spaces; the discrete
     agent never mutates it, so params covers everything that moves *)
  dst.rng.Nn.Rng.state <- src.rng.Nn.Rng.state

let zero_grad (t : t) : unit =
  Embedding.Code2vec.zero_grad t.c2v;
  Nn.Mlp.zero_grad t.trunk;
  Nn.Dense.zero_grad t.head_pi;
  Nn.Dense.zero_grad t.head_v;
  Nn.Tensor.fill_zero t.g_log_std
