(* Scenario: combining the polyhedral pipeline with vectorization pragmas
   on dense linear algebra (the paper's Section 4.1 / future-work
   discussion: "combining Polly and deep RL ... reaches 2.92x").

     dune exec examples/polybench_polly.exe

   Runs gemm through four configurations: baseline, pragma-tuned,
   Polly, and Polly + pragma, and shows where each transformation's win
   comes from (the tiled loop's working set vs the vector width). *)

let () =
  let gemm = Dataset.Polybench.programs.(0) in
  let polly_opts =
    { Neurovec.Pipeline.default_options with Neurovec.Pipeline.polly = true }
  in
  let seconds ?options plan =
    fst (Neurovec.Pipeline.measure ?options ~plan gemm)
  in
  let t_base = seconds Neurovec.Pipeline.Baseline in
  Printf.printf "%-28s %.3e s  (1.00x)\n" "baseline cost model" t_base;

  (* the best pragma alone, by brute force *)
  let oracle = Neurovec.Reward.create [| gemm |] in
  let act, _ = Neurovec.Reward.brute_force oracle 0 in
  let t_pragma = Neurovec.Reward.exec_seconds oracle 0 act in
  Printf.printf "%-28s %.3e s  (%.2fx)  [VF=%d IF=%d]\n" "best pragma (brute force)"
    t_pragma (t_base /. t_pragma) (Rl.Spaces.vf_of act) (Rl.Spaces.if_of act);

  (* polly alone *)
  let t_polly = seconds ~options:polly_opts Neurovec.Pipeline.Baseline in
  Printf.printf "%-28s %.3e s  (%.2fx)\n" "Polly (tiling + fusion)" t_polly
    (t_base /. t_polly);

  (* polly + the same brute-forced pragma *)
  let t_both =
    seconds ~options:polly_opts
      (Neurovec.Pipeline.Uniform (Rl.Spaces.vf_of act, Rl.Spaces.if_of act))
  in
  Printf.printf "%-28s %.3e s  (%.2fx)\n" "Polly + pragma" t_both
    (t_base /. t_both);

  (* why: look at the tiled loop structure *)
  print_endline "\nwhat Polly did to the loop nest:";
  let m =
    Ir_lower.lower_program
      (Minic.Parser.parse_string gemm.Dataset.Program.p_source)
  in
  let stats = Polly.Driver.optimize m in
  Printf.printf "  fusions: %d, tiled SCoPs: %d\n" stats.Polly.Driver.fusions
    stats.Polly.Driver.tiled_scops;
  let fn = List.hd m.Ir.m_funcs in
  Printf.printf "  loop nest depth after tiling: %d (was 3)\n"
    (List.length (Ir.func_loops fn))
