(* Tests for action spaces, the agent's distributions, and PPO learning on
   synthetic bandits. *)

let mk_agent ?(space = Rl.Spaces.Discrete) seed =
  Rl.Agent.create ~space (Nn.Rng.create seed)

let some_ids agent =
  let prog = Minic.Parser.parse_string
      "int a[64]; int b[64]; int kernel() { int i; for (i=0;i<64;i++) a[i]=b[i]; return a[0]; }"
  in
  let stmt = Neurovec.Extractor.embedding_stmt prog in
  Embedding.Code2vec.encode agent.Rl.Agent.c2v
    (Embedding.Ast_path.contexts_of_stmt stmt)

(* ------------------------------------------------------------------ *)
(* Spaces                                                               *)
(* ------------------------------------------------------------------ *)

let test_spaces_grid () =
  Alcotest.(check int) "35 actions" 35 (List.length Rl.Spaces.all_actions);
  Alcotest.(check int) "n_flat" 35 Rl.Spaces.n_flat

let test_spaces_flat_roundtrip () =
  List.iter
    (fun a ->
      let a' = Rl.Spaces.of_flat (Rl.Spaces.flat_of a) in
      Alcotest.(check bool) "round trip" true (a = a'))
    Rl.Spaces.all_actions

let test_spaces_of_flat_clamps () =
  let a = Rl.Spaces.of_flat 9999 in
  Alcotest.(check int) "max vf idx" (Rl.Spaces.n_vf - 1) a.Rl.Spaces.vf_idx;
  let b = Rl.Spaces.of_flat (-5) in
  Alcotest.(check int) "min" 0 b.Rl.Spaces.vf_idx

let test_spaces_values_powers_of_two () =
  Array.iter
    (fun v -> Alcotest.(check bool) "pow2" true (v land (v - 1) = 0))
    Rl.Spaces.vf_values

(* ------------------------------------------------------------------ *)
(* Agent distributions                                                  *)
(* ------------------------------------------------------------------ *)

let test_sample_logp_consistency () =
  List.iter
    (fun space ->
      let agent = mk_agent ~space 11 in
      let ids = some_ids agent in
      for _ = 1 to 20 do
        let f = Rl.Agent.forward agent ids in
        let taken = Rl.Agent.sample agent f in
        let lp = Rl.Agent.logp agent f.Rl.Agent.pi taken in
        if abs_float (lp -. taken.Rl.Agent.logp) > 1e-9 then
          Alcotest.failf "%s: logp mismatch %f vs %f"
            (Rl.Spaces.kind_to_string space)
            lp taken.Rl.Agent.logp
      done)
    [ Rl.Spaces.Discrete; Rl.Spaces.Continuous1; Rl.Spaces.Continuous2 ]

let test_predict_deterministic () =
  let agent = mk_agent 12 in
  let ids = some_ids agent in
  let a = Rl.Agent.predict agent ids in
  let b = Rl.Agent.predict agent ids in
  Alcotest.(check bool) "same action" true (a = b)

let test_entropy_positive () =
  let agent = mk_agent 13 in
  let f = Rl.Agent.forward agent (some_ids agent) in
  Alcotest.(check bool) "entropy > 0" true
    (Rl.Agent.entropy agent f.Rl.Agent.pi > 0.0)

(* finite-difference check: d(logp)/d(logits) for the discrete head *)
let test_discrete_logp_gradient () =
  let agent = mk_agent 14 in
  let ids = some_ids agent in
  let f = Rl.Agent.forward agent ids in
  let taken = Rl.Agent.sample agent f in
  let dpi =
    Rl.Agent.dpi_of agent f.Rl.Agent.pi taken ~dlogp_coef:1.0 ~dent_coef:0.0
  in
  (* perturb a logit and recompute logp *)
  List.iter
    (fun k ->
      let pi = Array.copy f.Rl.Agent.pi in
      pi.(k) <- pi.(k) +. 1e-5;
      let lp_p = Rl.Agent.logp agent pi taken in
      pi.(k) <- pi.(k) -. 2e-5;
      let lp_m = Rl.Agent.logp agent pi taken in
      let numeric = (lp_p -. lp_m) /. 2e-5 in
      if abs_float (numeric -. dpi.(k)) > 1e-3 then
        Alcotest.failf "dlogits[%d]: numeric %f vs analytic %f" k numeric
          dpi.(k))
    [ 0; 3; 7; 9 ]

(* ------------------------------------------------------------------ *)
(* Batched inference: bit-identical to the scalar agent                 *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let all_spaces =
  [ Rl.Spaces.Discrete; Rl.Spaces.Continuous1; Rl.Spaces.Continuous2 ]

(* a small mixed corpus: distinct snippets, a duplicate, and an empty one *)
let corpus_ids agent =
  let ids_of src =
    let prog = Minic.Parser.parse_string src in
    Embedding.Code2vec.encode agent.Rl.Agent.c2v
      (Embedding.Ast_path.contexts_of_stmt
         (Neurovec.Extractor.embedding_stmt prog))
  in
  let s0 = some_ids agent in
  let s1 =
    ids_of
      "float x[64]; float y[64]; int kernel() { float s = 0; int i; for (i=0;i<64;i++) s += x[i]*y[i]; return (int) s; }"
  in
  let s2 =
    ids_of
      "int a[64]; int kernel() { int i; for (i=0;i<64;i++) if (a[i] > 3) a[i] = i; return a[0]; }"
  in
  [| s0; s1; [||]; s0; s2 |]

let check_forward_batch ~what agent idss batched =
  Alcotest.(check int) (what ^ ": result count") (Array.length idss)
    (Array.length batched);
  Array.iteri
    (fun i ids ->
      let f = Rl.Agent.forward agent ids in
      let bpi, bv = batched.(i) in
      if bits f.Rl.Agent.v <> bits bv then
        Alcotest.failf "%s: snippet %d value %h vs %h" what i f.Rl.Agent.v bv;
      Array.iteri
        (fun k s ->
          if bits s <> bits bpi.(k) then
            Alcotest.failf "%s: snippet %d logit %d: %h vs %h" what i k s
              bpi.(k))
        f.Rl.Agent.pi)
    idss

let pool_map f xs = Neurovec.Parpool.map ~jobs:4 f xs

let test_forward_batch_bitwise () =
  List.iter
    (fun space ->
      let agent = mk_agent ~space 41 in
      let idss = corpus_ids agent in
      let what s =
        Printf.sprintf "%s %s" (Rl.Spaces.kind_to_string space) s
      in
      check_forward_batch ~what:(what "jobs 1") agent idss
        (Rl.Agent.forward_batch agent idss);
      check_forward_batch ~what:(what "jobs 4 serial map") agent idss
        (Rl.Agent.forward_batch ~jobs:4 agent idss);
      check_forward_batch ~what:(what "jobs 4 pool") agent idss
        (Rl.Agent.forward_batch ~jobs:4 ~map:pool_map agent idss))
    all_spaces

let test_predict_batch_matches () =
  List.iter
    (fun space ->
      let agent = mk_agent ~space 42 in
      let idss = corpus_ids agent in
      let expect = Array.map (Rl.Agent.predict agent) idss in
      List.iter
        (fun (what, got) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" (Rl.Spaces.kind_to_string space) what)
            true (expect = got))
        [
          ("jobs 1", Rl.Agent.predict_batch agent idss);
          ("jobs 3 serial map", Rl.Agent.predict_batch ~jobs:3 agent idss);
          ( "jobs 4 pool",
            Rl.Agent.predict_batch ~jobs:4 ~map:pool_map agent idss );
        ])
    all_spaces

(* the batched rollout order — draw the randomness first, forward the
   whole batch, then apply each draw — must reproduce the scalar
   [sample] exactly: same action, raw sample, logp, and RNG state *)
let test_draw_sample_with_equiv () =
  List.iter
    (fun space ->
      let a = mk_agent ~space 43 and b = mk_agent ~space 43 in
      let ids = some_ids a in
      for step = 1 to 10 do
        let fa = Rl.Agent.forward a ids in
        let ta = Rl.Agent.sample a fa in
        let d = Rl.Agent.draw b in
        let bpi, _ = (Rl.Agent.forward_batch b [| ids |]).(0) in
        let tb = Rl.Agent.sample_with b ~pi:bpi d in
        let what s =
          Printf.sprintf "%s step %d %s" (Rl.Spaces.kind_to_string space)
            step s
        in
        Alcotest.(check bool) (what "action") true
          (ta.Rl.Agent.act = tb.Rl.Agent.act);
        Alcotest.(check int64) (what "logp") (bits ta.Rl.Agent.logp)
          (bits tb.Rl.Agent.logp);
        Alcotest.(check bool) (what "raw") true
          (Array.map bits ta.Rl.Agent.raw = Array.map bits tb.Rl.Agent.raw)
      done;
      (* both streams consumed the same number of draws *)
      Alcotest.(check (float 0.0)) "rng in lockstep"
        (Nn.Rng.float a.Rl.Agent.rng)
        (Nn.Rng.float b.Rl.Agent.rng))
    all_spaces

(* ------------------------------------------------------------------ *)
(* PPO on synthetic bandits                                             *)
(* ------------------------------------------------------------------ *)

(* one context, one rewarded action: PPO must find it *)
let test_ppo_learns_fixed_target () =
  let agent = mk_agent 15 in
  let samples = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent } |] in
  let target = { Rl.Spaces.vf_idx = 3; if_idx = 1 } in
  let reward _ (a : Rl.Spaces.action) =
    if a = target then 1.0 else if a.Rl.Spaces.vf_idx = 3 then 0.3 else 0.0
  in
  ignore
    (Rl.Ppo.train
       ~hyper:{ Rl.Ppo.default_hyper with batch_size = 64; lr = 3e-3 }
       agent ~samples ~reward ~total_steps:1500);
  let predicted = Rl.Agent.predict agent samples.(0).Rl.Ppo.s_ids in
  Alcotest.(check bool) "found the rewarded action" true (predicted = target)

(* two distinguishable contexts with different optimal actions *)
let test_ppo_distinguishes_contexts () =
  let agent = mk_agent 16 in
  let ids_of src =
    let prog = Minic.Parser.parse_string src in
    Embedding.Code2vec.encode agent.Rl.Agent.c2v
      (Embedding.Ast_path.contexts_of_stmt
         (Neurovec.Extractor.embedding_stmt prog))
  in
  let s0 =
    ids_of "int a[64]; int kernel() { int i; for (i=0;i<64;i++) a[i] = i; return a[0]; }"
  in
  let s1 =
    ids_of
      "float x[64]; float y[64]; int kernel() { float s = 0; int i; for (i=0;i<64;i++) s += x[i]*y[i]; return (int) s; }"
  in
  let samples =
    [| { Rl.Ppo.s_id = 0; s_ids = s0 }; { Rl.Ppo.s_id = 1; s_ids = s1 } |]
  in
  let reward id (a : Rl.Spaces.action) =
    match id with
    | 0 -> if a.Rl.Spaces.vf_idx = 1 then 1.0 else 0.0
    | _ -> if a.Rl.Spaces.vf_idx = 5 then 1.0 else 0.0
  in
  ignore
    (Rl.Ppo.train
       ~hyper:{ Rl.Ppo.default_hyper with batch_size = 128; lr = 3e-3 }
       agent ~samples ~reward ~total_steps:4000);
  let p0 = Rl.Agent.predict agent s0 and p1 = Rl.Agent.predict agent s1 in
  Alcotest.(check int) "context 0 -> vf idx 1" 1 p0.Rl.Spaces.vf_idx;
  Alcotest.(check int) "context 1 -> vf idx 5" 5 p1.Rl.Spaces.vf_idx

let test_ppo_reward_improves () =
  let agent = mk_agent 17 in
  let samples = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent } |] in
  let reward _ (a : Rl.Spaces.action) =
    float_of_int a.Rl.Spaces.vf_idx /. 6.0
  in
  let hist =
    Rl.Ppo.train
      ~hyper:{ Rl.Ppo.default_hyper with batch_size = 64; lr = 3e-3 }
      agent ~samples ~reward ~total_steps:1280
  in
  let first = (List.hd hist).Rl.Ppo.reward_mean in
  let last = (List.hd (List.rev hist)).Rl.Ppo.reward_mean in
  Alcotest.(check bool)
    (Printf.sprintf "improves (%.3f -> %.3f)" first last)
    true (last > first)

let test_ppo_stats_shape () =
  let agent = mk_agent 18 in
  let samples = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent } |] in
  let hist =
    Rl.Ppo.train
      ~hyper:{ Rl.Ppo.default_hyper with batch_size = 50 }
      agent ~samples
      ~reward:(fun _ _ -> 0.5)
      ~total_steps:150
  in
  Alcotest.(check int) "three updates" 3 (List.length hist);
  List.iteri
    (fun i st ->
      Alcotest.(check int) "update number" (i + 1) st.Rl.Ppo.update;
      Alcotest.(check (float 1e-9)) "constant reward" 0.5 st.Rl.Ppo.reward_mean)
    hist

(* batched rollout collection must be invisible: same statistics to the
   bit, same final policy, whether the batch forward runs serially or
   sharded across the pool *)
let test_ppo_batched_rollouts_identical () =
  List.iter
    (fun space ->
      let reward id (a : Rl.Spaces.action) =
        (* deterministic, content-addressed: call order cannot matter *)
        float_of_int ((a.Rl.Spaces.vf_idx * 3) + a.Rl.Spaces.if_idx + id)
        /. 25.0
      in
      let run ~batched ~rollout_jobs ~rollout_map =
        let agent = mk_agent ~space 45 in
        let samples =
          [|
            { Rl.Ppo.s_id = 0; s_ids = some_ids agent };
            { Rl.Ppo.s_id = 1; s_ids = [||] };
          |]
        in
        let hist =
          Rl.Ppo.train
            ~hyper:{ Rl.Ppo.default_hyper with batch_size = 50; lr = 3e-3 }
            ~batched ~rollout_jobs ~rollout_map agent ~samples ~reward
            ~total_steps:200
        in
        (hist, Array.map (fun s -> Rl.Agent.predict agent s.Rl.Ppo.s_ids) samples)
      in
      let serial_map f xs = Array.map f xs in
      let hist_s, pred_s =
        run ~batched:false ~rollout_jobs:1 ~rollout_map:serial_map
      in
      List.iter
        (fun (what, rollout_jobs, rollout_map) ->
          let hist_b, pred_b = run ~batched:true ~rollout_jobs ~rollout_map in
          let what s =
            Printf.sprintf "%s %s %s" (Rl.Spaces.kind_to_string space) what s
          in
          Alcotest.(check int) (what "updates") (List.length hist_s)
            (List.length hist_b);
          List.iter2
            (fun (a : Rl.Ppo.stats) (b : Rl.Ppo.stats) ->
              Alcotest.(check int64) (what "reward mean")
                (Int64.bits_of_float a.Rl.Ppo.reward_mean)
                (Int64.bits_of_float b.Rl.Ppo.reward_mean);
              Alcotest.(check int64) (what "loss")
                (Int64.bits_of_float a.Rl.Ppo.loss)
                (Int64.bits_of_float b.Rl.Ppo.loss);
              Alcotest.(check int64) (what "entropy")
                (Int64.bits_of_float a.Rl.Ppo.entropy_mean)
                (Int64.bits_of_float b.Rl.Ppo.entropy_mean))
            hist_s hist_b;
          Alcotest.(check bool) (what "final policy") true (pred_s = pred_b))
        [
          ("batched jobs 1", 1, serial_map);
          ("batched jobs 4 pool", 4, pool_map);
        ])
    all_spaces

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                          *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  let agent = mk_agent 19 in
  let ids = some_ids agent in
  let before = Rl.Agent.predict agent ids in
  let path = Filename.temp_file "neurovec" ".agent" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rl.Checkpoint.save agent path;
      let loaded = Rl.Checkpoint.load path in
      let after = Rl.Agent.predict loaded ids in
      Alcotest.(check bool) "same prediction" true (before = after))

let test_checkpoint_rejects_garbage () =
  let path = Filename.temp_file "neurovec" ".agent" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_value oc ("something-else", 9);
      close_out oc;
      match Rl.Checkpoint.load path with
      | exception Rl.Checkpoint.Bad_checkpoint _ -> ()
      | _ -> Alcotest.fail "expected Bad_checkpoint")

(* ---- corruption matrix ---- *)

let with_temp f =
  let path = Filename.temp_file "neurovec" ".agent" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let expect_bad ~msg path =
  match Rl.Checkpoint.load path with
  | exception Rl.Checkpoint.Bad_checkpoint m ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %S" m msg)
        true (contains ~sub:msg m)
  | _ -> Alcotest.fail "expected Bad_checkpoint"

let test_checkpoint_state_roundtrip () =
  let agent = mk_agent 20 in
  let st =
    { Rl.Train_state.ts_steps = 250; ts_update = 5;
      ts_history =
        [ { Rl.Train_state.update = 5; steps = 250; reward_mean = 0.25;
            loss = 0.5; entropy_mean = 1.2 } ];
      ts_optim = Nn.Optim.adam ~lr:1e-3 (); ts_rollbacks = 0 }
  in
  with_temp (fun path ->
      Rl.Checkpoint.save ~state:st agent path;
      Alcotest.(check bool) "no temp file left" false
        (Sys.file_exists (path ^ ".tmp"));
      match Rl.Checkpoint.load_full path with
      | _, None -> Alcotest.fail "state lost"
      | _, Some st' ->
          Alcotest.(check int) "steps" 250 st'.Rl.Train_state.ts_steps;
          Alcotest.(check int) "update" 5 st'.Rl.Train_state.ts_update;
          Alcotest.(check int) "history" 1
            (List.length st'.Rl.Train_state.ts_history))

let test_checkpoint_v1_compat () =
  let agent = mk_agent 21 in
  let ids = some_ids agent in
  let before = Rl.Agent.predict agent ids in
  with_temp (fun path ->
      (* a v1 file: header + bare agent, no CRC footer *)
      let oc = open_out_bin path in
      output_value oc ("neurovec-agent", 1);
      output_value oc agent;
      close_out oc;
      let loaded, state = Rl.Checkpoint.load_full path in
      Alcotest.(check bool) "no state in v1" true (state = None);
      Alcotest.(check bool) "same prediction" true
        (Rl.Agent.predict loaded ids = before))

let test_checkpoint_truncated_header () =
  with_temp (fun path ->
      write_file path "neu";
      expect_bad ~msg:"not an agent checkpoint" path)

let test_checkpoint_truncated_body () =
  with_temp (fun path ->
      (* valid header, then nothing *)
      let oc = open_out_bin path in
      output_value oc ("neurovec-agent", 2);
      close_out oc;
      expect_bad ~msg:"truncated or corrupt body" path;
      (* v1 header with no agent behind it *)
      let oc = open_out_bin path in
      output_value oc ("neurovec-agent", 1);
      close_out oc;
      expect_bad ~msg:"truncated or corrupt v1 body" path;
      (* a real checkpoint chopped mid-body *)
      Rl.Checkpoint.save (mk_agent 22) path;
      let bytes = read_file path in
      write_file path (String.sub bytes 0 (String.length bytes / 2));
      match Rl.Checkpoint.load path with
      | exception Rl.Checkpoint.Bad_checkpoint _ -> ()
      | _ -> Alcotest.fail "expected Bad_checkpoint")

let test_checkpoint_flipped_byte () =
  with_temp (fun path ->
      Rl.Checkpoint.save (mk_agent 23) path;
      let bytes = Bytes.of_string (read_file path) in
      (* flip one bit deep inside the payload: the marshal framing stays
         intact, so only the CRC can catch it *)
      let i = Bytes.length bytes / 2 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
      write_file path (Bytes.to_string bytes);
      expect_bad ~msg:"CRC32" path)

let test_checkpoint_unsupported_version () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_value oc ("neurovec-agent", 99);
      close_out oc;
      expect_bad ~msg:"unsupported" path)

(* ---- kill-and-resume ---- *)

(* training 300 steps straight and training 100 steps, checkpointing,
   then resuming to 300 in a fresh process state must produce the same
   policy and the same statistics history *)
let test_ppo_resume_equivalence () =
  let hyper = { Rl.Ppo.default_hyper with batch_size = 50; lr = 3e-3 } in
  let reward _ (a : Rl.Spaces.action) =
    if a.Rl.Spaces.vf_idx = 3 then 1.0 else 0.1 *. float_of_int a.Rl.Spaces.if_idx
  in
  (* straight run *)
  let agent_a = mk_agent 24 in
  let ids_a = some_ids agent_a in
  let samples_a = [| { Rl.Ppo.s_id = 0; s_ids = ids_a } |] in
  let hist_a =
    Rl.Ppo.train ~hyper agent_a ~samples:samples_a ~reward ~total_steps:300
  in
  (* interrupted run: stop at 100, checkpoint, reload, continue to 300 *)
  with_temp (fun path ->
      let agent_b = mk_agent 24 in
      let samples_b = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent_b } |] in
      ignore
        (Rl.Ppo.train ~hyper ~checkpoint_path:path agent_b ~samples:samples_b
           ~reward ~total_steps:100);
      let agent_c, state = Rl.Checkpoint.load_full path in
      let st =
        match state with
        | Some st -> st
        | None -> Alcotest.fail "checkpoint carries no training state"
      in
      Alcotest.(check int) "checkpointed at 100 steps" 100
        st.Rl.Train_state.ts_steps;
      let samples_c = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent_c } |] in
      let hist_c =
        Rl.Ppo.train ~hyper ~resume:st agent_c ~samples:samples_c ~reward
          ~total_steps:300
      in
      Alcotest.(check int) "same number of updates" (List.length hist_a)
        (List.length hist_c);
      List.iter2
        (fun (a : Rl.Ppo.stats) (c : Rl.Ppo.stats) ->
          Alcotest.(check int) "update" a.Rl.Ppo.update c.Rl.Ppo.update;
          Alcotest.(check int) "steps" a.Rl.Ppo.steps c.Rl.Ppo.steps;
          Alcotest.(check (float 0.0)) "reward mean" a.Rl.Ppo.reward_mean
            c.Rl.Ppo.reward_mean;
          Alcotest.(check (float 0.0)) "loss" a.Rl.Ppo.loss c.Rl.Ppo.loss)
        hist_a hist_c;
      Alcotest.(check bool) "same final greedy policy" true
        (Rl.Agent.predict agent_a ids_a
        = Rl.Agent.predict agent_c samples_c.(0).Rl.Ppo.s_ids))

(* periodic checkpoints actually appear during training, not only at the
   end *)
let test_ppo_periodic_checkpoints () =
  with_temp (fun path ->
      let agent = mk_agent 25 in
      let samples = [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent } |] in
      let seen = ref 0 in
      ignore
        (Rl.Ppo.train
           ~hyper:{ Rl.Ppo.default_hyper with batch_size = 50 }
           ~progress:(fun st ->
             if st.Rl.Ppo.steps < 300 && Sys.file_exists path then incr seen)
           ~checkpoint_path:path ~checkpoint_every:50 agent ~samples
           ~reward:(fun _ _ -> 0.5)
           ~total_steps:300);
      Alcotest.(check bool)
        (Printf.sprintf "mid-run checkpoints observed (%d)" !seen)
        true (!seen >= 1);
      Alcotest.(check bool) "final checkpoint loads" true
        (match Rl.Checkpoint.load_full path with
        | _, Some st -> st.Rl.Train_state.ts_steps = 300
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Minibatch PPO update: bit-identical to the per-sample loop           *)
(* ------------------------------------------------------------------ *)

(* The per-sample epoch step the minibatch update replaced, kept as the
   reference: one scalar forward and backward per transition. *)
let reference_grads (agent : Rl.Agent.t) ~(hyper : Rl.Ppo.hyper) ~clip
    (mb : Rl.Ppo.transition array) (sums : Rl.Ppo.sums) =
  Rl.Agent.zero_grad agent;
  Array.iter
    (fun (tr : Rl.Ppo.transition) ->
      let f = Rl.Agent.forward agent tr.Rl.Ppo.t_sample.Rl.Ppo.s_ids in
      let taken = tr.Rl.Ppo.t_taken in
      let lp = Rl.Agent.logp agent f.Rl.Agent.pi taken in
      let ratio = exp (lp -. taken.Rl.Agent.logp) in
      let adv = tr.Rl.Ppo.t_reward -. tr.Rl.Ppo.t_value in
      let unclipped_active =
        if adv >= 0.0 then ratio < 1.0 +. clip else ratio > 1.0 -. clip
      in
      let dlogp = if unclipped_active then -.(ratio *. adv) else 0.0 in
      let dpi =
        Rl.Agent.dpi_of agent f.Rl.Agent.pi taken ~dlogp_coef:dlogp
          ~dent_coef:(-.hyper.Rl.Ppo.ent_coef)
      in
      let dv = hyper.Rl.Ppo.vf_coef *. (f.Rl.Agent.v -. tr.Rl.Ppo.t_reward) in
      Rl.Agent.backward agent f ~dpi ~dv;
      let surr =
        let clipped = max (1.0 -. clip) (min (1.0 +. clip) ratio) in
        min (ratio *. adv) (clipped *. adv)
      in
      let ent = Rl.Agent.entropy agent f.Rl.Agent.pi in
      sums.Rl.Ppo.loss_sum <-
        sums.Rl.Ppo.loss_sum
        +. (-.surr)
        +. (hyper.Rl.Ppo.vf_coef *. 0.5
           *. ((f.Rl.Agent.v -. tr.Rl.Ppo.t_reward) ** 2.0))
        -. (hyper.Rl.Ppo.ent_coef *. ent);
      sums.Rl.Ppo.ent_sum <- sums.Rl.Ppo.ent_sum +. ent;
      sums.Rl.Ppo.kl_sum <- sums.Rl.Ppo.kl_sum +. (taken.Rl.Agent.logp -. lp);
      sums.Rl.Ppo.count <- sums.Rl.Ppo.count + 1)
    mb

(* 100 transitions over the mixed corpus (a duplicate snippet and an
   empty-context pad among them) plus a snippet that repeats one
   (l, p, r) triple, so every minibatch holds repeated triples *)
let training_batch (agent : Rl.Agent.t) : Rl.Ppo.transition array =
  let base = some_ids agent in
  let repeated = [| base.(0); base.(1); base.(0); base.(0); base.(2) |] in
  let snippets = Array.append (corpus_ids agent) [| repeated |] in
  let rng = Nn.Rng.create 5 in
  Array.init 100 (fun k ->
      let s_ids = snippets.(k mod Array.length snippets) in
      let f = Rl.Agent.forward agent s_ids in
      let taken = Rl.Agent.sample agent f in
      { Rl.Ppo.t_sample = { Rl.Ppo.s_id = k; s_ids };
        t_taken = taken; t_value = f.Rl.Agent.v;
        t_reward = Nn.Rng.normal rng })

let adam_moments what = function
  | Nn.Optim.Adam { state = Some st; _ } -> st
  | _ -> Alcotest.failf "%s: no Adam moments" what

let check_vecs what (a : float array) (b : float array) =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s[%d]: minibatch %h vs per-sample %h" what i x b.(i))
    a

(* both paths in lockstep over three shuffled epochs of 100 transitions
   in minibatches of 64 (so each epoch ends on a 36-sample remainder):
   statistics, every gradient, every parameter and both Adam moments
   must agree bit for bit after every minibatch *)
let test_minibatch_update_identical () =
  List.iter
    (fun space ->
      let name = Rl.Spaces.kind_to_string space in
      let batch = training_batch (mk_agent ~space 46) in
      let a = mk_agent ~space 47 and b = mk_agent ~space 47 in
      let hyper = { Rl.Ppo.default_hyper with ent_coef = 0.05 } in
      let opt_a = Nn.Optim.adam ~lr:1e-2 ()
      and opt_b = Nn.Optim.adam ~lr:1e-2 () in
      let sums_a = Rl.Ppo.new_sums () and sums_b = Rl.Ppo.new_sums () in
      let order = Array.init 100 Fun.id and rng = Nn.Rng.create 9 in
      for epoch = 1 to 3 do
        Nn.Rng.shuffle rng order;
        let shuffled = Array.map (fun k -> batch.(k)) order in
        let i = ref 0 in
        while !i < 100 do
          let size = min 64 (100 - !i) in
          let mb = Array.sub shuffled !i size in
          let what s = Printf.sprintf "%s epoch %d at %d: %s" name epoch !i s in
          Rl.Ppo.minibatch_grads a ~hyper ~clip:0.2 mb sums_a;
          reference_grads b ~hyper ~clip:0.2 mb sums_b;
          check_vecs (what "stats")
            [| sums_a.loss_sum; sums_a.ent_sum; sums_a.kl_sum;
               float_of_int sums_a.count |]
            [| sums_b.loss_sum; sums_b.ent_sum; sums_b.kl_sum;
               float_of_int sums_b.count |];
          let pa = Rl.Agent.params a and pb = Rl.Agent.params b in
          List.iteri
            (fun k ((_, ga), (_, gb)) ->
              check_vecs (what (Printf.sprintf "gradient %d" k)) ga gb)
            (List.combine pa pb);
          Nn.Optim.step ~scale:(float_of_int size) opt_a pa;
          Nn.Optim.step ~scale:(float_of_int size) opt_b pb;
          List.iteri
            (fun k ((wa, _), (wb, _)) ->
              check_vecs (what (Printf.sprintf "parameter %d" k)) wa wb)
            (List.combine pa pb);
          List.iteri
            (fun k ((ma, va), (mb, vb)) ->
              check_vecs (what (Printf.sprintf "adam m %d" k)) ma mb;
              check_vecs (what (Printf.sprintf "adam v %d" k)) va vb)
            (List.combine (adam_moments "a" opt_a) (adam_moments "b" opt_b));
          i := !i + size
        done
      done)
    all_spaces

(* the injected NaN still trips the sentinel at the update it poisons:
   updates 1-2 pass, update 3 is rolled back and redone *)
let test_minibatch_nan_trips_same_update () =
  Rl.Sentinel.reset_counters ();
  let agent = mk_agent 48 in
  let samples =
    [| { Rl.Ppo.s_id = 0; s_ids = some_ids agent };
       { Rl.Ppo.s_id = 1; s_ids = [||] } |]
  in
  let reward id (a : Rl.Spaces.action) =
    float_of_int ((a.Rl.Spaces.vf_idx * 3) + a.Rl.Spaces.if_idx + id) /. 25.0
  in
  let sentinel =
    { Rl.Sentinel.default with
      inject_nan = (fun ~update ~rollbacks -> update = 3 && rollbacks = 0) }
  in
  let seen = ref [] in
  let progress (st : Rl.Ppo.stats) =
    seen := (st.Rl.Ppo.update, Rl.Sentinel.trip_count ()) :: !seen
  in
  ignore
    (Rl.Ppo.train
       ~hyper:{ Rl.Ppo.default_hyper with batch_size = 50 }
       ~sentinel ~progress agent ~samples ~reward ~total_steps:250);
  Alcotest.(check (list (pair int int)))
    "(update, trips so far) at each admitted update"
    [ (1, 0); (2, 0); (3, 1); (4, 1); (5, 1) ]
    (List.rev !seen)

let suite =
  [
    ( "rl.spaces",
      [
        Alcotest.test_case "35-point grid" `Quick test_spaces_grid;
        Alcotest.test_case "flat round trip" `Quick test_spaces_flat_roundtrip;
        Alcotest.test_case "of_flat clamps" `Quick test_spaces_of_flat_clamps;
        Alcotest.test_case "powers of two" `Quick
          test_spaces_values_powers_of_two;
      ] );
    ( "rl.agent",
      [
        Alcotest.test_case "sample/logp consistency" `Quick
          test_sample_logp_consistency;
        Alcotest.test_case "predict deterministic" `Quick
          test_predict_deterministic;
        Alcotest.test_case "entropy positive" `Quick test_entropy_positive;
        Alcotest.test_case "discrete logp gradient" `Quick
          test_discrete_logp_gradient;
      ] );
    ( "rl.checkpoint",
      [
        Alcotest.test_case "round trip" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick
          test_checkpoint_rejects_garbage;
        Alcotest.test_case "state round trip" `Quick
          test_checkpoint_state_roundtrip;
        Alcotest.test_case "loads v1 files" `Quick test_checkpoint_v1_compat;
        Alcotest.test_case "truncated header" `Quick
          test_checkpoint_truncated_header;
        Alcotest.test_case "truncated body" `Quick
          test_checkpoint_truncated_body;
        Alcotest.test_case "flipped byte fails CRC" `Quick
          test_checkpoint_flipped_byte;
        Alcotest.test_case "unsupported version" `Quick
          test_checkpoint_unsupported_version;
      ] );
    ( "rl.ppo",
      [
        Alcotest.test_case "learns fixed target" `Slow
          test_ppo_learns_fixed_target;
        Alcotest.test_case "distinguishes contexts" `Slow
          test_ppo_distinguishes_contexts;
        Alcotest.test_case "reward improves" `Quick test_ppo_reward_improves;
        Alcotest.test_case "stats bookkeeping" `Quick test_ppo_stats_shape;
        Alcotest.test_case "kill-and-resume equivalence" `Quick
          test_ppo_resume_equivalence;
        Alcotest.test_case "periodic checkpoints" `Quick
          test_ppo_periodic_checkpoints;
      ] );
    ( "batched.agent",
      [
        Alcotest.test_case "forward_batch bitwise" `Quick
          test_forward_batch_bitwise;
        Alcotest.test_case "predict_batch matches" `Quick
          test_predict_batch_matches;
        Alcotest.test_case "draw + sample_with = sample" `Quick
          test_draw_sample_with_equiv;
      ] );
    ( "batched.ppo",
      [
        Alcotest.test_case "batched rollouts identical" `Slow
          test_ppo_batched_rollouts_identical;
      ] );
    ( "batched.training",
      [
        Alcotest.test_case "minibatch update = per-sample loop" `Quick
          test_minibatch_update_identical;
        Alcotest.test_case "injected NaN trips the same update" `Quick
          test_minibatch_nan_trips_same_update;
      ] );
  ]
