(* Scenario: auto-tuning the vectorization factors of an image-processing
   pipeline (the paper's intro motivation: engineers hand-writing per-loop
   pragmas).

     dune exec examples/autotune_stencil.exe

   The program has three loops with very different characters — a blur
   stencil, a strided channel split, and a threshold pass — so one global
   (VF, IF) cannot be right. We brute-force each loop independently and
   compare: baseline cost model, one-global-pragma, and per-loop tuning. *)

let image_pipeline =
  Dataset.Program.make ~family:"example" "image_pipeline"
    "int img[66][512]; int blur[64][512];\n\
     int r_chan[8192]; int g_chan[8192]; int rgb[16384];\n\
     int mask_out[8192];\n\
     int kernel() {\n\
    \  int i;\n\
    \  int j;\n\
    \  for (i = 0; i < 64; i++) {\n\
    \    for (j = 0; j < 512; j++) {\n\
    \      blur[i][j] = (img[i][j] + img[i+1][j] + img[i+2][j]) / 3;\n\
    \    }\n\
    \  }\n\
    \  for (i = 0; i < 8192; i++) {\n\
    \    r_chan[i] = rgb[2*i];\n\
    \    g_chan[i] = rgb[2*i+1];\n\
    \  }\n\
    \  for (i = 0; i < 8192; i++) {\n\
    \    mask_out[i] = r_chan[i] > 128 ? g_chan[i] : 0;\n\
    \  }\n\
    \  return blur[10][10] + mask_out[100];\n\
     }\n"

let () =
  let p = image_pipeline in
  let seconds plan = fst (Neurovec.Pipeline.measure ~plan p) in
  let base = seconds Neurovec.Pipeline.Baseline in
  Printf.printf "baseline cost model: %.3e s\n" base;

  (* one global pragma — what -force-vector-width would do; the paper
     rejects this because one size cannot fit all loops *)
  let global = seconds (Neurovec.Pipeline.Uniform (8, 2)) in
  Printf.printf "global (VF=8, IF=2): %.3e s (%.2fx)\n" global (base /. global);

  (* per-loop brute force *)
  let prog = Minic.Parser.parse_string p.Dataset.Program.p_source in
  let sites = Neurovec.Extractor.extract prog in
  let best_for (site : Neurovec.Extractor.loop_site) =
    let best = ref (1, 1, base) in
    List.iter
      (fun (a : Rl.Spaces.action) ->
        let vf = Rl.Spaces.vf_of a and if_ = Rl.Spaces.if_of a in
        let decisions =
          [ (site.Neurovec.Extractor.ordinal, Neurovec.Injector.pragma_of ~vf ~if_) ]
        in
        let t = seconds (Neurovec.Pipeline.Per_loop decisions) in
        let _, _, bt = !best in
        if t < bt then best := (vf, if_, t))
      Rl.Spaces.all_actions;
    !best
  in
  let per_loop =
    List.map
      (fun site ->
        let vf, if_, t = best_for site in
        Printf.printf "  loop %d: best (VF=%d, IF=%d), alone gives %.3e s\n"
          site.Neurovec.Extractor.ordinal vf if_ t;
        (site.Neurovec.Extractor.ordinal, Neurovec.Injector.pragma_of ~vf ~if_))
      sites
  in
  let tuned = seconds (Neurovec.Pipeline.Per_loop per_loop) in
  Printf.printf "per-loop tuned pragmas: %.3e s (%.2fx over baseline)\n" tuned
    (base /. tuned);
  Printf.printf
    "\n(the RL agent learns to make these per-loop calls in one inference\n\
    \ step instead of %d compilations per loop)\n"
    (List.length Rl.Spaces.all_actions)
