(* Quickstart: the public API in five minutes.

     dune exec examples/quickstart.exe

   1. Define a C program (the paper's dot-product motivating kernel).
   2. Compile it with the baseline cost model and look at the decision.
   3. Inject a vectorization pragma and compare simulated execution time.
   4. Ask the dependence analysis why a loop is (or is not) vectorizable. *)

let dot =
  Dataset.Program.make ~family:"example" "dot"
    "int vec[512];\n\
     int kernel() {\n\
    \  int sum = 0;\n\
    \  int i;\n\
    \  for (i = 0; i < 512; i++) sum += vec[i] * vec[i];\n\
    \  return sum;\n\
     }\n"

let illegal =
  Dataset.Program.make ~family:"example" "recurrence"
    "int a[512];\n\
     int kernel() {\n\
    \  int i;\n\
    \  for (i = 1; i < 512; i++) a[i] = a[i-1] + 1;\n\
    \  return a[511];\n\
     }\n"

let () =
  (* -- 2: baseline compile --------------------------------------- *)
  let base = Neurovec.Pipeline.compile ~plan:Neurovec.Pipeline.Baseline dot in
  print_endline "baseline cost model (what clang -O3 would do):";
  List.iter
    (fun d ->
      Printf.printf "  loop %d -> VF=%d IF=%d\n" d.Vectorizer.Planner.d_loop_id
        d.Vectorizer.Planner.d_applied.Vectorizer.Transform.vf
        d.Vectorizer.Planner.d_applied.Vectorizer.Transform.if_)
    base.Neurovec.Pipeline.decisions;
  Printf.printf "  simulated execution: %.3e s\n\n"
    base.Neurovec.Pipeline.exec_seconds;

  (* -- 3: pragma injection ----------------------------------------- *)
  print_endline "injecting #pragma clang loop vectorize_width(16) interleave_count(2):";
  let tuned =
    Neurovec.Pipeline.compile ~plan:(Neurovec.Pipeline.Uniform (16, 2)) dot
  in
  Printf.printf "  simulated execution: %.3e s (%.2fx over baseline)\n\n"
    tuned.Neurovec.Pipeline.exec_seconds
    (base.Neurovec.Pipeline.exec_seconds
    /. tuned.Neurovec.Pipeline.exec_seconds);

  (* -- 4: legality ------------------------------------------------- *)
  print_endline "asking legality about a loop-carried recurrence:";
  let m =
    Ir_lower.lower_program
      (Minic.Parser.parse_string illegal.Dataset.Program.p_source)
  in
  let fn = List.hd m.Ir.m_funcs in
  List.iter
    (fun info ->
      Printf.printf "  vectorizable: %b\n"
        info.Analysis.Loopinfo.li_vectorizable;
      List.iter (Printf.printf "  reason: %s\n") info.Analysis.Loopinfo.li_reasons)
    (Analysis.Loopinfo.innermost_infos fn);

  (* the reward the RL agent would see for the tuned pragma *)
  let oracle = Neurovec.Reward.create [| dot |] in
  let r =
    Neurovec.Reward.reward oracle 0 { Rl.Spaces.vf_idx = 4; if_idx = 1 }
  in
  Printf.printf "\nRL reward for (VF=16, IF=2): %+0.3f (positive = beats baseline)\n" r
