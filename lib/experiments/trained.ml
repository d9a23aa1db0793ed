(** The shared trained model used by Figures 7, 8 and 9: one agent trained
    once on the synthetic corpus (80/20 split), plus brute-force labels and
    the NNS / decision-tree predictors fitted on the learned embeddings —
    mirroring Section 3.5's recipe of reusing the end-to-end-trained
    embedding for the supervised methods. *)

type t = {
  agent : Rl.Agent.t;
  oracle : Neurovec.Reward.t;  (** over the training split *)
  train_set : Dataset.Program.t array;
  test_set : Dataset.Program.t array;
  nns : Agents.Nns.t;
  dtree : Agents.Dtree.tree;
}

let code_vector (agent : Rl.Agent.t) (p : Dataset.Program.t) : float array =
  (Embedding.Code2vec.forward_ids agent.Rl.Agent.c2v
     (Neurovec.Framework.encode agent p))
    .Embedding.Code2vec.code

(** Train the shared model.  The size knobs default to the full-scale run
    of the figures (still scaled by [NEUROVEC_SCALE]); the golden snapshot
    tests pass tiny values to build a fast deterministic instance. *)
let build ?(seed = 5) ?(corpus_size = Common.scaled 800)
    ?(train_steps = Common.scaled 8000) ?(n_labeled = Common.scaled 250) () :
    t =
  let corpus = Dataset.Loopgen.generate ~seed corpus_size in
  let train_set, test_set = Dataset.Loopgen.train_test_split corpus in
  let fw = Neurovec.Framework.create ~seed:9 train_set in
  ignore
    (Neurovec.Framework.train fw
       ~hyper:{ Rl.Ppo.default_hyper with batch_size = 500 }
       ~total_steps:train_steps);
  (* brute-force labels on a labeled portion of the training split, fanned
     across the evaluation pool; a program the oracle quarantined
     contributes no label instead of aborting the build *)
  let n_labeled = min (Array.length train_set) n_labeled in
  let labeled =
    Common.guarded_map
      ~name:(fun i -> train_set.(i).Dataset.Program.p_name)
      (fun i ->
        let act, _ =
          Neurovec.Reward.brute_force fw.Neurovec.Framework.oracle i
        in
        ( code_vector fw.Neurovec.Framework.agent train_set.(i),
          Rl.Spaces.flat_of act ))
      (Array.init n_labeled Fun.id)
  in
  let xs = Array.of_list (List.map fst labeled) in
  let ys = Array.of_list (List.map snd labeled) in
  {
    agent = fw.Neurovec.Framework.agent;
    oracle = fw.Neurovec.Framework.oracle;
    train_set;
    test_set;
    nns = Agents.Nns.fit xs ys;
    dtree = Agents.Dtree.fit xs ys;
  }

let instance : t lazy_t = lazy (build ())

let get () = Lazy.force instance

(* ------------------------------------------------------------------ *)
(* Method evaluation on arbitrary programs                              *)
(* ------------------------------------------------------------------ *)

type method_ =
  | Baseline
  | Random
  | PollyM
  | NnsM
  | DtreeM
  | RlM
  | BruteForce
  | PollyRl

let method_name = function
  | Baseline -> "baseline"
  | Random -> "random"
  | PollyM -> "polly"
  | NnsM -> "NNS"
  | DtreeM -> "decision-tree"
  | RlM -> "RL"
  | BruteForce -> "brute-force"
  | PollyRl -> "polly+RL"

(** Execution seconds of [p] under a method. Methods that inject pragmas
    decide per innermost loop. *)
let seconds (t : t) (m : method_) (p : Dataset.Program.t) : float =
  let polly_opts =
    { Neurovec.Pipeline.default_options with Neurovec.Pipeline.polly = true }
  in
  let flat_decisions (predict : Dataset.Program.t -> int) =
    (* one model decision reused for every loop of the program, driven by
       per-loop contexts *)
    let prog = (Neurovec.Frontend.checked p).Neurovec.Frontend.a_ast in
    List.map
      (fun site ->
        ignore site;
        let a = Rl.Spaces.of_flat (predict p) in
        ( site.Neurovec.Extractor.ordinal,
          Neurovec.Injector.pragma_of ~vf:(Rl.Spaces.vf_of a)
            ~if_:(Rl.Spaces.if_of a) ))
      (Neurovec.Extractor.extract prog)
  in
  let run ?options plan = fst (Neurovec.Pipeline.measure ?options ~plan p) in
  let per_loop ?options decisions =
    run ?options (Neurovec.Pipeline.Per_loop decisions)
  in
  match m with
  | Baseline -> run Neurovec.Pipeline.Baseline
  | PollyM -> run ~options:polly_opts Neurovec.Pipeline.Baseline
  | Random ->
      let rng = Nn.Rng.create (Hashtbl.hash p.Dataset.Program.p_name) in
      let a = Agents.Random_search.pick rng in
      run (Neurovec.Pipeline.Uniform (Rl.Spaces.vf_of a, Rl.Spaces.if_of a))
  | NnsM ->
      per_loop
        (flat_decisions (fun p ->
             Agents.Nns.predict t.nns (code_vector t.agent p)))
  | DtreeM ->
      per_loop
        (flat_decisions (fun p ->
             Agents.Dtree.predict t.dtree (code_vector t.agent p)))
  | RlM -> per_loop (Neurovec.Framework.predict_decisions t.agent p)
  | BruteForce ->
      let oracle = Neurovec.Reward.create [| p |] in
      let act, _ = Neurovec.Reward.brute_force oracle 0 in
      Neurovec.Reward.exec_seconds oracle 0 act
  | PollyRl ->
      per_loop ~options:polly_opts
        (Neurovec.Framework.predict_decisions t.agent p)
