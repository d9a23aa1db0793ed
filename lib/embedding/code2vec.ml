(** The code2vec model: learned embeddings for path contexts, combined by a
    fully-connected layer and aggregated with soft attention into a single
    fixed-length code vector (Alon et al., POPL 2019 — the embedding
    generator the paper plugs in front of its RL agent).

    For a snippet with contexts {(l, p, r)}:

    {v x_c   = [E_tok[l]; E_path[p]; E_tok[r]]
       h_c   = tanh(W x_c + b)
       alpha = softmax_c (h_c . a)
       code  = sum_c alpha_c h_c v}

    The model trains end-to-end: the RL objective's gradient flows through
    the policy network into [code], and {!backward} pushes it through the
    attention, the combiner, and the embedding tables. *)

type config = {
  d_token : int;
  d_path : int;
  d_code : int;  (** the paper's "340 features" — configurable *)
  vocab : Vocab.t;
  max_contexts : int;
  use_attention : bool;  (** false = mean pooling (ablation) *)
}

let default_config =
  { d_token = 32; d_path = 48; d_code = 128; vocab = Vocab.default;
    max_contexts = 24; use_attention = true }

(** The paper-faithful configuration (340-dimensional code vectors);
    ~3x slower to train than [default_config]. *)
let paper_config = { default_config with d_code = 340 }

type t = {
  cfg : config;
  tok : Nn.Tensor.mat;  (** n_tokens x d_token *)
  g_tok : Nn.Tensor.mat;
  path : Nn.Tensor.mat;  (** n_paths x d_path *)
  g_path : Nn.Tensor.mat;
  combine : Nn.Dense.t;  (** (2 d_token + d_path) -> d_code *)
  attn : Nn.Tensor.vec;  (** d_code *)
  g_attn : Nn.Tensor.vec;
}

let create ?(cfg = default_config) (rng : Nn.Rng.t) : t =
  {
    cfg;
    tok = Nn.Tensor.mat_xavier rng cfg.vocab.Vocab.n_tokens cfg.d_token;
    g_tok = Nn.Tensor.mat_create cfg.vocab.Vocab.n_tokens cfg.d_token;
    path = Nn.Tensor.mat_xavier rng cfg.vocab.Vocab.n_paths cfg.d_path;
    g_path = Nn.Tensor.mat_create cfg.vocab.Vocab.n_paths cfg.d_path;
    combine =
      Nn.Dense.create rng ~in_dim:((2 * cfg.d_token) + cfg.d_path)
        ~out_dim:cfg.d_code;
    attn = Array.init cfg.d_code (fun _ -> Nn.Rng.range rng ~lo:(-0.1) ~hi:0.1);
    g_attn = Nn.Tensor.vec_create cfg.d_code;
  }

(* table row views *)
let row (m : Nn.Tensor.mat) (i : int) : Nn.Tensor.vec =
  Array.sub m.Nn.Tensor.data (i * m.Nn.Tensor.cols) m.Nn.Tensor.cols

let row_add (m : Nn.Tensor.mat) (i : int) (v : Nn.Tensor.vec) : unit =
  let base = i * m.Nn.Tensor.cols in
  for j = 0 to m.Nn.Tensor.cols - 1 do
    m.Nn.Tensor.data.(base + j) <- m.Nn.Tensor.data.(base + j) +. v.(j)
  done

type ids = { li : int; pi : int; ri : int }

type cache = {
  ids : ids array;
  xs : Nn.Tensor.vec array;  (** concatenated inputs *)
  hs : Nn.Tensor.vec array;  (** tanh outputs *)
  alphas : Nn.Tensor.vec;
  code : Nn.Tensor.vec;
  padded : bool;
      (** the snippet had no contexts and [ids] is the synthetic pad —
          its rows alias real vocab rows 0 and must not receive gradient *)
}

(* forward/backward cost is bounded by the model's own max_contexts, no
   matter how many contexts a caller extracted *)
let clamp (t : t) (ids : ids array) : ids array =
  if Array.length ids <= t.cfg.max_contexts then ids
  else Array.sub ids 0 t.cfg.max_contexts

(** Map contexts to vocabulary ids (clamped to [cfg.max_contexts]). *)
let encode (t : t) (ctxs : Ast_path.context list) : ids array =
  let v = t.cfg.vocab in
  ctxs
  |> List.map (fun c ->
         { li = Vocab.token_id v c.Ast_path.left;
           pi = Vocab.path_id v c.Ast_path.path;
           ri = Vocab.token_id v c.Ast_path.right })
  |> Array.of_list |> clamp t

let forward_ids (t : t) (ids : ids array) : cache =
  let ids = clamp t ids in
  let n = max 1 (Array.length ids) in
  let padded = Array.length ids = 0 in
  let ids = if padded then [| { li = 0; pi = 0; ri = 0 } |] else ids in
  let xs =
    Array.map
      (fun { li; pi; ri } ->
        Array.concat [ row t.tok li; row t.path pi; row t.tok ri ])
      ids
  in
  let hs =
    Array.map (fun x -> Nn.Tensor.tanh_fwd (Nn.Dense.forward t.combine x)) xs
  in
  let alphas =
    if t.cfg.use_attention then
      Nn.Tensor.softmax (Array.map (fun h -> Nn.Tensor.dot h t.attn) hs)
    else Array.make n (1.0 /. float_of_int n)
  in
  let code = Nn.Tensor.vec_create t.cfg.d_code in
  for c = 0 to n - 1 do
    Nn.Tensor.axpy ~alpha:alphas.(c) hs.(c) code
  done;
  { ids; xs; hs; alphas; code; padded }

let forward (t : t) (ctxs : Ast_path.context list) : cache =
  forward_ids t (encode t ctxs)

(** What one batched forward leaves in the arena for {!backward_rows}:
    every context occurrence in (snippet, context) order, mapped to its
    unique (l, p, r) triple.  All buffers are arena slots, valid until
    the arena is reused. *)
type rows = {
  snippets : ids array array;  (** as passed in; [[||]] marks a pad *)
  counts : int array;  (** per snippet: clamped context count, >= 1 *)
  total : int;  (** occurrences *)
  uix : int array;  (** occurrence -> unique triple *)
  ul : int array;  (** unique triple -> token / path / token id *)
  up : int array;
  ur : int array;
  alphas : float array;  (** occurrence -> attention weight *)
  x : Nn.Batch.buf;  (** unique [E_tok[l]; E_path[p]; E_tok[r]] rows *)
  h : Nn.Batch.buf;  (** unique [tanh (W x + b)] rows *)
  codes : Nn.Batch.buf;  (** [n x d_code] code rows *)
}

(** One batched forward over many snippets, on [arena] scratch (see
    {!Nn.Batch}): packs every (clamped, padded) context of the batch into
    one contiguous input matrix, computes each {e unique} (l, p, r)
    triple's [h = tanh(W x + b)] row exactly once — identical triples
    produce bit-identical rows, so the deduplication cannot change any
    result — then runs each snippet's attention softmax over its own
    segment of occurrences.  Each code row is bit-identical to
    [(forward_ids t ids).code], and each occurrence's weight to the
    matching [alphas] entry. *)
let forward_rows (t : t) (arena : Nn.Batch.arena)
    (snippets : ids array array) : rows =
  let cfg = t.cfg in
  let d_tok = cfg.d_token and d_path = cfg.d_path and d_code = cfg.d_code in
  let in_dim = (2 * d_tok) + d_path in
  let n = Array.length snippets in
  let counts = Nn.Batch.int_slot arena "c2v.counts" n in
  let total = ref 0 and max_count = ref 1 in
  for s = 0 to n - 1 do
    let c = max 1 (min (Array.length snippets.(s)) cfg.max_contexts) in
    counts.(s) <- c;
    if c > !max_count then max_count := c;
    total := !total + c
  done;
  let total = !total in
  (* map every context occurrence to its unique-triple row *)
  let tbl = arena.Nn.Batch.table in
  Hashtbl.reset tbl;
  let uix = Nn.Batch.int_slot arena "c2v.uix" total in
  let ul = Nn.Batch.int_slot arena "c2v.ul" total in
  let up = Nn.Batch.int_slot arena "c2v.up" total in
  let ur = Nn.Batch.int_slot arena "c2v.ur" total in
  let n_tok = cfg.vocab.Vocab.n_tokens and n_path = cfg.vocab.Vocab.n_paths in
  let uniq = ref 0 and occ = ref 0 in
  for s = 0 to n - 1 do
    let ids = snippets.(s) in
    for c = 0 to counts.(s) - 1 do
      let { li; pi; ri } =
        if Array.length ids = 0 then { li = 0; pi = 0; ri = 0 } else ids.(c)
      in
      let key = (((li * n_path) + pi) * n_tok) + ri in
      let u =
        match Hashtbl.find_opt tbl key with
        | Some u -> u
        | None ->
            let u = !uniq in
            Hashtbl.add tbl key u;
            ul.(u) <- li;
            up.(u) <- pi;
            ur.(u) <- ri;
            incr uniq;
            u
      in
      uix.(!occ) <- u;
      incr occ
    done
  done;
  let uniq = !uniq in
  (* gather the unique [E_tok[l]; E_path[p]; E_tok[r]] input rows *)
  let x = Nn.Batch.slot arena "c2v.x" (uniq * in_dim) in
  for u = 0 to uniq - 1 do
    let off = u * in_dim in
    Nn.Batch.blit_mat_row ~src:t.tok ~row:ul.(u) ~dst:x ~dst_off:off;
    Nn.Batch.blit_mat_row ~src:t.path ~row:up.(u) ~dst:x
      ~dst_off:(off + d_tok);
    Nn.Batch.blit_mat_row ~src:t.tok ~row:ur.(u) ~dst:x
      ~dst_off:(off + d_tok + d_path)
  done;
  (* h_u = tanh(W x_u + b), once per unique triple *)
  let h = Nn.Batch.slot arena "c2v.h" (uniq * d_code) in
  Nn.Dense.forward_rows t.combine ~x ~y:h ~rows:uniq;
  Nn.Batch.tanh_inplace h ~len:(uniq * d_code);
  (* per-snippet attention over its own segment, accumulated into codes *)
  let codes = Nn.Batch.slot arena "c2v.codes" (max 1 (n * d_code)) in
  let scores = Nn.Batch.float_slot arena "c2v.scores" !max_count in
  let alphas = Nn.Batch.float_slot arena "c2v.alphas" total in
  let off = ref 0 in
  for s = 0 to n - 1 do
    let nc = counts.(s) in
    (if cfg.use_attention then begin
       for c = 0 to nc - 1 do
         scores.(c) <- Nn.Batch.dot_row h ~off:(uix.(!off + c) * d_code) t.attn
       done;
       Nn.Batch.softmax_inplace scores ~n:nc
     end
     else
       let a = 1.0 /. float_of_int nc in
       for c = 0 to nc - 1 do
         scores.(c) <- a
       done);
    Array.blit scores 0 alphas !off nc;
    let cbase = s * d_code in
    Nn.Batch.fill_zero_row codes ~off:cbase ~len:d_code;
    for c = 0 to nc - 1 do
      Nn.Batch.axpy_row ~alpha:scores.(c) ~src:h
        ~src_off:(uix.(!off + c) * d_code) ~dst:codes ~dst_off:cbase
        ~len:d_code
    done;
    off := !off + nc
  done;
  { snippets; counts; total; uix; ul; up; ur; alphas; x; h; codes }

(** Push dL/dcode back through attention, combiner, and tables. *)
let backward (t : t) (c : cache) ~(dcode : Nn.Tensor.vec) : unit =
  let n = Array.length c.ids in
  let d_tok = t.cfg.d_token and d_path = t.cfg.d_path in
  (* attention backward *)
  let dalpha = Array.map (fun h -> Nn.Tensor.dot dcode h) c.hs in
  let mean = ref 0.0 in
  for k = 0 to n - 1 do
    mean := !mean +. (c.alphas.(k) *. dalpha.(k))
  done;
  for ci = 0 to n - 1 do
    let ds =
      if t.cfg.use_attention then c.alphas.(ci) *. (dalpha.(ci) -. !mean)
      else 0.0
    in
    (* dL/dh_c = alpha_c * dcode + ds * attn;  da += ds * h_c *)
    let dh = Nn.Tensor.vec_create t.cfg.d_code in
    Nn.Tensor.axpy ~alpha:c.alphas.(ci) dcode dh;
    Nn.Tensor.axpy ~alpha:ds t.attn dh;
    Nn.Tensor.axpy ~alpha:ds c.hs.(ci) t.g_attn;
    (* tanh + dense backward *)
    let dz = Nn.Tensor.tanh_bwd c.hs.(ci) dh in
    let dx = Nn.Dense.backward t.combine ~x:c.xs.(ci) ~dy:dz in
    (* split dx into the three table rows — unless this is the synthetic
       pad of an empty snippet, whose ids alias real vocab rows 0 and
       must not train them *)
    if not c.padded then begin
      let { li; pi; ri } = c.ids.(ci) in
      row_add t.g_tok li (Array.sub dx 0 d_tok);
      row_add t.g_path pi (Array.sub dx d_tok d_path);
      row_add t.g_tok ri (Array.sub dx (d_tok + d_path) d_tok)
    end
  done

(** {!backward} for every snippet of a {!forward_rows} pass at once,
    given their dL/dcode rows in [dcodes].  Each gradient element
    receives the additions of the per-snippet calls in the same
    (snippet, context) order, so the gradients are bit-identical to
    calling {!backward} snippet by snippet; the combiner's outer products
    and input gradients run as row kernels over all occurrences. *)
let backward_rows (t : t) (arena : Nn.Batch.arena) (r : rows)
    ~(dcodes : Nn.Batch.buf) : unit =
  let cfg = t.cfg in
  let d_tok = cfg.d_token and d_path = cfg.d_path and d_code = cfg.d_code in
  let in_dim = (2 * d_tok) + d_path in
  let h = r.h and attn = t.attn and g_attn = t.g_attn in
  let gb = t.combine.Nn.Dense.gb in
  (* attention + tanh backward, per occurrence: dz rows; the attention
     and bias gradients accumulate here, in occurrence order *)
  let dz = Nn.Batch.slot arena "c2v.dz" (r.total * d_code) in
  let dalpha = Nn.Batch.float_slot arena "c2v.dalpha" cfg.max_contexts in
  let off = ref 0 in
  Array.iteri
    (fun s _ ->
      let nc = r.counts.(s) and cbase = s * d_code in
      for k = 0 to nc - 1 do
        let hbase = r.uix.(!off + k) * d_code in
        let acc = ref 0.0 in
        for i = 0 to d_code - 1 do
          acc :=
            !acc
            +. (Nn.Batch.get dcodes (cbase + i) *. Nn.Batch.get h (hbase + i))
        done;
        dalpha.(k) <- !acc
      done;
      let mean = ref 0.0 in
      for k = 0 to nc - 1 do
        mean := !mean +. (r.alphas.(!off + k) *. dalpha.(k))
      done;
      for k = 0 to nc - 1 do
        let o = !off + k in
        let alpha = r.alphas.(o) in
        let ds =
          if cfg.use_attention then alpha *. (dalpha.(k) -. !mean) else 0.0
        in
        let hbase = r.uix.(o) * d_code and zbase = o * d_code in
        for i = 0 to d_code - 1 do
          let hi = Nn.Batch.get h (hbase + i) in
          let dh = 0.0 +. (alpha *. Nn.Batch.get dcodes (cbase + i)) in
          let dh = dh +. (ds *. Array.unsafe_get attn i) in
          g_attn.(i) <- g_attn.(i) +. (ds *. hi);
          let dzi = dh *. (1.0 -. (hi *. hi)) in
          Nn.Batch.set dz (zbase + i) dzi;
          gb.(i) <- gb.(i) +. (1.0 *. dzi)
        done
      done;
      off := !off + nc)
    r.snippets;
  (* combiner: gW += dz_o x_u(o)^T, then dx_o = W^T dz_o *)
  Nn.Batch.ger_rows ~ix:r.uix t.combine.Nn.Dense.gw ~dy:dz ~x:r.x ~rows:r.total;
  let dx = Nn.Batch.slot arena "c2v.dx" (r.total * in_dim) in
  Nn.Batch.gemv_t_rows t.combine.Nn.Dense.w ~dy:dz ~dx ~rows:r.total;
  (* scatter into the tables, skipping the synthetic pads (see backward) *)
  let add_row (m : Nn.Tensor.mat) row ~src_off ~len =
    let base = row * m.Nn.Tensor.cols and d = m.Nn.Tensor.data in
    for j = 0 to len - 1 do
      d.(base + j) <- d.(base + j) +. Nn.Batch.get dx (src_off + j)
    done
  in
  let off = ref 0 in
  Array.iteri
    (fun s ids ->
      let nc = r.counts.(s) in
      if Array.length ids > 0 then
        for k = 0 to nc - 1 do
          let o = !off + k in
          let u = r.uix.(o) and xo = o * in_dim in
          add_row t.g_tok r.ul.(u) ~src_off:xo ~len:d_tok;
          add_row t.g_path r.up.(u) ~src_off:(xo + d_tok) ~len:d_path;
          add_row t.g_tok r.ur.(u) ~src_off:(xo + d_tok + d_path) ~len:d_tok
        done;
      off := !off + nc)
    r.snippets

let params (t : t) : Nn.Optim.params =
  [ (t.tok.Nn.Tensor.data, t.g_tok.Nn.Tensor.data);
    (t.path.Nn.Tensor.data, t.g_path.Nn.Tensor.data);
    (t.attn, t.g_attn) ]
  @ Nn.Dense.params t.combine

let zero_grad (t : t) : unit =
  Nn.Tensor.mat_fill_zero t.g_tok;
  Nn.Tensor.mat_fill_zero t.g_path;
  Nn.Tensor.fill_zero t.g_attn;
  Nn.Dense.zero_grad t.combine
