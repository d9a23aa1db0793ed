(** Figure 1: performance of the dot-product kernel for every (VF, IF),
    normalized to the baseline cost model's choice.

    Paper facts to reproduce in shape: the baseline picks (VF=4, IF=2) and
    is ~2.6x faster than scalar; a large majority of the 35 grid points
    beat the baseline; the optimum sits at a much wider factor than the
    baseline chose; extreme over-vectorization collapses. *)

let dot_kernel =
  Dataset.Program.make ~family:"fig1" "dot_product"
    "int vec[512];\n\
     int kernel() {\n\
    \  int sum = 0;\n\
    \  int i;\n\
    \  for (i = 0; i < 512; i++) {\n\
    \    sum += vec[i] * vec[i];\n\
    \  }\n\
    \  return sum;\n\
     }\n"

type result = {
  baseline_plan : int * int;
  scalar_over_baseline : float;
  grid : (int * int * float) list;  (** (vf, if, speedup over baseline) *)
  best : int * int * float;
  improving : int;  (** grid points beating the baseline *)
  total : int;
}

let run () : result =
  let base =
    Neurovec.Pipeline.compile ~plan:Neurovec.Pipeline.Baseline dot_kernel
  in
  let baseline_plan =
    match base.Neurovec.Pipeline.decisions with
    | d :: _ ->
        ( d.Vectorizer.Planner.d_applied.Vectorizer.Transform.vf,
          d.Vectorizer.Planner.d_applied.Vectorizer.Transform.if_ )
    | [] -> (1, 1)
  in
  let t_base = base.Neurovec.Pipeline.exec_seconds in
  let seconds vf if_ =
    fst
      (Neurovec.Pipeline.measure
         ~plan:(Neurovec.Pipeline.Uniform (vf, if_))
         dot_kernel)
  in
  let scalar = seconds 1 1 in
  let grid =
    List.concat_map
      (fun vf ->
        List.map
          (fun if_ ->
            (vf, if_, t_base /. seconds vf if_))
          (Array.to_list Rl.Spaces.if_values))
      (Array.to_list Rl.Spaces.vf_values)
  in
  let best =
    List.fold_left
      (fun (bv, bi, bs) (v, i, s) -> if s > bs then (v, i, s) else (bv, bi, bs))
      (1, 1, 0.0) grid
  in
  {
    baseline_plan;
    scalar_over_baseline = scalar /. t_base;
    grid;
    best;
    improving = List.length (List.filter (fun (_, _, s) -> s > 1.0) grid);
    total = List.length grid;
  }

let print () =
  Common.header "Figure 1: dot product, all (VF, IF), normalized to baseline";
  let r = run () in
  let bvf, bif = r.baseline_plan in
  Printf.printf "baseline cost model picked (VF=%d, IF=%d)\n" bvf bif;
  Printf.printf "baseline over scalar: %.2fx   (paper: 2.6x)\n"
    r.scalar_over_baseline;
  Printf.printf "%6s" "VF\\IF";
  Array.iter (fun i -> Printf.printf "%8d" i) Rl.Spaces.if_values;
  print_newline ();
  Array.iter
    (fun vf ->
      Printf.printf "%6d" vf;
      List.iter
        (fun (v, _, s) -> if v = vf then Printf.printf "%8.2f" s)
        r.grid;
      print_newline ())
    Rl.Spaces.vf_values;
  let bv, bi, bs = r.best in
  Printf.printf
    "best (VF=%d, IF=%d) at %.2fx over baseline (paper: (64,8), 1.2x)\n" bv bi
    bs;
  Printf.printf "%d / %d grid points beat the baseline (paper: 26 / 35)\n"
    r.improving r.total
