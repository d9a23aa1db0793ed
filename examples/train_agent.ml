(* Scenario: the paper's workflow in miniature — train the PPO agent on a
   synthetic loop corpus, then deploy it on code it has never seen.

     dune exec examples/train_agent.exe

   Generates 150 loop programs, trains for 4,000 environment steps
   (compilations), and then predicts pragmas for two held-out programs,
   comparing against the baseline cost model and brute force. *)

let () =
  let corpus = Dataset.Loopgen.generate ~seed:101 170 in
  let train_set = Array.sub corpus 0 150 in
  let held_out = Array.sub corpus 150 20 in
  let fw = Neurovec.Framework.create ~seed:7 train_set in
  Printf.printf "training on %d programs...\n%!" (Array.length train_set);
  ignore
    (Neurovec.Framework.train fw
       ~hyper:{ Rl.Ppo.default_hyper with batch_size = 400 }
       ~total_steps:4000
       ~progress:(fun st ->
         Printf.printf "  update %2d  steps %5d  reward_mean %+0.3f\n%!"
           st.Rl.Ppo.update st.Rl.Ppo.steps st.Rl.Ppo.reward_mean));
  Printf.printf "\nreward oracle ran %d real compilations (rest memoized)\n"
    fw.Neurovec.Framework.oracle.Neurovec.Reward.evaluations;

  (* deploy on held-out programs: inference is one forward pass per loop *)
  Printf.printf "\nheld-out programs (speedup over baseline):\n";
  let speedups =
    Array.to_list held_out
    |> List.map (fun p ->
           let seconds plan = fst (Neurovec.Pipeline.measure ~plan p) in
           let base = seconds Neurovec.Pipeline.Baseline in
           let decisions =
             Neurovec.Framework.predict_decisions fw.Neurovec.Framework.agent p
           in
           let rl = seconds (Neurovec.Pipeline.Per_loop decisions) in
           let oracle = Neurovec.Reward.create [| p |] in
           let act, _ = Neurovec.Reward.brute_force oracle 0 in
           let bf = Neurovec.Reward.exec_seconds oracle 0 act in
           Printf.printf "  %-22s RL %.2fx   brute force %.2fx\n"
             p.Dataset.Program.p_name (base /. rl) (base /. bf);
           (base /. rl, base /. bf))
  in
  let geo l = exp (List.fold_left (fun a x -> a +. log x) 0.0 l
                   /. float_of_int (List.length l)) in
  Printf.printf "\ngeomean: RL %.2fx, brute force %.2fx\n"
    (geo (List.map fst speedups))
    (geo (List.map snd speedups))
