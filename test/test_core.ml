(* Tests for the end-to-end framework: extractor, injector, pipeline,
   reward oracle. *)

let simple_src =
  "int a[256]; int b[256];\n\
   int kernel() {\n\
  \  int i;\n\
  \  for (i = 0; i < 256; i++) a[i] = b[i] + 1;\n\
  \  return a[0];\n\
   }\n"

let nested_src =
  "int g[32][32];\n\
   int kernel() {\n\
  \  int i;\n\
  \  int j;\n\
  \  for (i = 0; i < 32; i++) {\n\
  \    for (j = 0; j < 32; j++) g[i][j] = i + j;\n\
  \  }\n\
  \  return g[1][2];\n\
   }\n"

let two_loops_src =
  "int a[128]; int b[128]; int c[128];\n\
   int kernel() {\n\
  \  int i;\n\
  \  int j;\n\
  \  for (i = 0; i < 128; i++) a[i] = b[i];\n\
  \  for (j = 0; j < 128; j++) c[j] = a[j] * 2;\n\
  \  return c[64];\n\
   }\n"

let prog name src = Dataset.Program.make ~family:"test" name src

let uniform vf if_ p =
  Neurovec.Pipeline.compile ~plan:(Neurovec.Pipeline.Uniform (vf, if_)) p

(* ------------------------------------------------------------------ *)
(* Extractor                                                            *)
(* ------------------------------------------------------------------ *)

let test_extract_simple () =
  let sites = Neurovec.Extractor.extract_source simple_src in
  Alcotest.(check int) "one loop" 1 (List.length sites)

let test_extract_two () =
  let sites = Neurovec.Extractor.extract_source two_loops_src in
  Alcotest.(check (list int)) "ordinals" [ 0; 1 ]
    (List.map (fun s -> s.Neurovec.Extractor.ordinal) sites)

let test_extract_nested_context_is_outer () =
  match Neurovec.Extractor.extract_source nested_src with
  | [ site ] -> (
      (* the context must be the *outer* For statement *)
      match site.Neurovec.Extractor.context with
      | Minic.Ast.For f ->
          Alcotest.(check bool) "outer loop contains a for" true
            (Minic.Ast.has_inner_for f.Minic.Ast.body)
      | _ -> Alcotest.fail "context is not a for loop")
  | _ -> Alcotest.fail "expected exactly one innermost site"

let test_extract_no_loops () =
  let sites = Neurovec.Extractor.extract_source "int f() { return 1; }" in
  Alcotest.(check int) "none" 0 (List.length sites);
  let stmt =
    Neurovec.Extractor.embedding_stmt
      (Minic.Parser.parse_string "int f() { return 1; }")
  in
  Alcotest.(check bool) "fallback stmt" true (stmt <> Minic.Ast.Empty)

(* ------------------------------------------------------------------ *)
(* Injector                                                             *)
(* ------------------------------------------------------------------ *)

let test_inject_visible_to_parser () =
  let out = Neurovec.Injector.inject_all simple_src ~vf:8 ~if_:4 in
  Alcotest.(check bool) "pragma text present" true
    (let needle = "vectorize_width(8) interleave_count(4)" in
     let n = String.length needle and l = String.length out in
     let found = ref false in
     for i = 0 to l - n do
       if String.sub out i n = needle then found := true
     done;
     !found);
  (* and it round-trips through the parser onto the loop *)
  match Neurovec.Extractor.extract_source out with
  | [ site ] -> (
      match site.Neurovec.Extractor.innermost.Minic.Ast.pragma with
      | Some p ->
          Alcotest.(check (option int)) "vf" (Some 8) p.Minic.Ast.vectorize_width
      | None -> Alcotest.fail "pragma lost")
  | _ -> Alcotest.fail "loop lost"

let test_inject_innermost_of_nest () =
  let out = Neurovec.Injector.inject_all nested_src ~vf:4 ~if_:2 in
  let prog = Minic.Parser.parse_string out in
  let with_pragma = ref 0 and total = ref 0 in
  Minic.Ast.iter_program_stmts
    (fun s ->
      match s with
      | Minic.Ast.For f ->
          incr total;
          if f.Minic.Ast.pragma <> None then incr with_pragma
      | _ -> ())
    prog;
  Alcotest.(check int) "two loops" 2 !total;
  Alcotest.(check int) "only the innermost got the pragma" 1 !with_pragma

let test_inject_per_loop_decisions () =
  let decisions =
    [ (0, Neurovec.Injector.pragma_of ~vf:2 ~if_:1);
      (1, Neurovec.Injector.pragma_of ~vf:16 ~if_:4) ]
  in
  let out =
    Neurovec.Injector.inject_source ~clear_others:true two_loops_src ~decisions
  in
  match Neurovec.Extractor.extract_source out with
  | [ s0; s1 ] ->
      let vf s =
        match s.Neurovec.Extractor.innermost.Minic.Ast.pragma with
        | Some p -> p.Minic.Ast.vectorize_width
        | None -> None
      in
      Alcotest.(check (option int)) "loop 0" (Some 2) (vf s0);
      Alcotest.(check (option int)) "loop 1" (Some 16) (vf s1)
  | _ -> Alcotest.fail "loops lost"

let test_inject_clear_others () =
  let with_pragma = Neurovec.Injector.inject_all simple_src ~vf:8 ~if_:4 in
  let cleared =
    Neurovec.Injector.inject_source ~clear_others:true with_pragma ~decisions:[]
  in
  match Neurovec.Extractor.extract_source cleared with
  | [ site ] ->
      Alcotest.(check bool) "pragma removed" true
        (site.Neurovec.Extractor.innermost.Minic.Ast.pragma = None)
  | _ -> Alcotest.fail "loop lost"

(* A program mixing sibling loops, a triple nest with a trailing sibling
   inside the outer body, and a loop under an [if] — the shapes where an
   injector/extractor ordinal mismatch would silently re-target pragmas. *)
let mixed_loops_src =
  "int a[64]; int b[64]; int c[64]; int g[8][8][8];\n\
   int kernel() {\n\
  \  int i;\n\
  \  int j;\n\
  \  int k;\n\
  \  for (i = 0; i < 64; i++) a[i] = b[i];\n\
  \  for (i = 0; i < 8; i++) {\n\
  \    for (j = 0; j < 8; j++) {\n\
  \      for (k = 0; k < 8; k++) g[i][j][k] = i + j + k;\n\
  \    }\n\
  \    for (k = 0; k < 8; k++) c[k] = c[k] + 1;\n\
  \  }\n\
  \  if (a[0] < 100) {\n\
  \    for (j = 0; j < 64; j++) b[j] = a[j] * 2;\n\
  \  }\n\
  \  return a[0] + c[0] + g[1][2][3] + b[5];\n\
   }\n"

let test_inject_ast_ordinals_agree_with_extractor () =
  let ast = Minic.Parser.parse_string mixed_loops_src in
  let n = List.length (Neurovec.Extractor.extract ast) in
  Alcotest.(check int) "four innermost loops" 4 n;
  (* inject a unique pragma at each ordinal and check it lands exactly on
     the extractor's site of the same ordinal *)
  for target = 0 to n - 1 do
    let vf = 1 lsl (1 + (target mod 6)) in
    let inj =
      Neurovec.Injector.inject_ast ~clear_others:true ast
        ~decisions:[ (target, Neurovec.Injector.pragma_of ~vf ~if_:2) ]
    in
    List.iteri
      (fun i site ->
        let got =
          match site.Neurovec.Extractor.innermost.Minic.Ast.pragma with
          | Some p -> p.Minic.Ast.vectorize_width
          | None -> None
        in
        let expected = if i = target then Some vf else None in
        Alcotest.(check (option int))
          (Printf.sprintf "site %d when targeting %d" i target)
          expected got)
      (Neurovec.Extractor.extract inj)
  done

(* ------------------------------------------------------------------ *)
(* Pipeline                                                             *)
(* ------------------------------------------------------------------ *)

let test_pipeline_baseline_vs_pragma () =
  let p = prog "t" simple_src in
  let base = Neurovec.Pipeline.compile ~plan:Neurovec.Pipeline.Baseline p in
  let wide = uniform 16 1 p in
  Alcotest.(check bool) "times positive" true
    (base.Neurovec.Pipeline.exec_seconds > 0.0
    && wide.Neurovec.Pipeline.exec_seconds > 0.0);
  Alcotest.(check bool) "pragma changes the plan" true
    (base.Neurovec.Pipeline.exec_seconds
    <> wide.Neurovec.Pipeline.exec_seconds)

let test_pipeline_compile_time_grows () =
  let p = prog "t" simple_src in
  let small = uniform 2 1 p in
  let huge = uniform 64 16 p in
  Alcotest.(check bool) "compile time grows with VF*IF" true
    (huge.Neurovec.Pipeline.compile_seconds
     > 2.0 *. small.Neurovec.Pipeline.compile_seconds)

let test_pipeline_deterministic () =
  let p = prog "t" simple_src in
  let a = Neurovec.Pipeline.compile ~plan:Neurovec.Pipeline.Baseline p in
  let b = Neurovec.Pipeline.compile ~plan:Neurovec.Pipeline.Baseline p in
  Alcotest.(check (float 0.0)) "deterministic seconds"
    a.Neurovec.Pipeline.exec_seconds b.Neurovec.Pipeline.exec_seconds

let test_pipeline_missing_kernel () =
  let p = { (prog "t" simple_src) with Dataset.Program.p_kernel = "nope" } in
  match Neurovec.Pipeline.compile ~plan:Neurovec.Pipeline.Baseline p with
  | exception Neurovec.Pipeline.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected Compile_error"

(* Malformed programs surface as [Compile_error] from both evaluation
   functions under every kind of plan, never as a raw parser or sema
   exception. *)
let expect_compile_error_everywhere (p : Dataset.Program.t) =
  let plans =
    [ ("baseline", Neurovec.Pipeline.Baseline);
      ("uniform", Neurovec.Pipeline.Uniform (4, 2));
      ("per-loop", Neurovec.Pipeline.Per_loop []) ]
  in
  List.iter
    (fun (label, plan) ->
      let check what f =
        match f () with
        | exception Neurovec.Pipeline.Compile_error _ -> ()
        | exception e ->
            Alcotest.failf "%s %s: expected Compile_error, got %s" what label
              (Printexc.to_string e)
        | _ -> Alcotest.failf "%s %s: expected Compile_error" what label
      in
      check "compile" (fun () -> ignore (Neurovec.Pipeline.compile ~plan p));
      check "measure" (fun () -> ignore (Neurovec.Pipeline.measure ~plan p)))
    plans

let test_pipeline_wraps_parse_errors () =
  expect_compile_error_everywhere (prog "bad" "int kernel( { return 0; }")

let test_pipeline_wraps_sema_errors () =
  (* unbound symbolic array bound: a semantic, not syntactic, failure *)
  expect_compile_error_everywhere
    (prog "unbound" "int a[N]; int kernel() { return a[0]; }")

(* The front-end artifact cache must not change results: a cold and a warm
   evaluation of the same (program, pragma) point are identical. *)
let test_frontend_cache_identical_results () =
  let p = prog "t" simple_src in
  Neurovec.Frontend.clear ();
  let cold = uniform 8 2 p in
  let warm = uniform 8 2 p in
  Alcotest.(check (float 0.0)) "exec" cold.Neurovec.Pipeline.exec_seconds
    warm.Neurovec.Pipeline.exec_seconds;
  Alcotest.(check (float 0.0)) "compile" cold.Neurovec.Pipeline.compile_seconds
    warm.Neurovec.Pipeline.compile_seconds;
  Alcotest.(check (float 0.0)) "cycles" cold.Neurovec.Pipeline.exec_cycles
    warm.Neurovec.Pipeline.exec_cycles

(* ------------------------------------------------------------------ *)
(* Reward oracle                                                        *)
(* ------------------------------------------------------------------ *)

let test_reward_sign_convention () =
  let oracle = Neurovec.Reward.create [| prog "t" simple_src |] in
  (* scalar pragma (VF=1, IF=1) should not beat the baseline *)
  let r_scalar = Neurovec.Reward.reward oracle 0 { Rl.Spaces.vf_idx = 0; if_idx = 0 } in
  Alcotest.(check bool) "scalar <= baseline" true (r_scalar <= 0.0);
  (* some action must be >= scalar *)
  let _, r_best = Neurovec.Reward.brute_force oracle 0 in
  Alcotest.(check bool) "best >= scalar" true (r_best >= r_scalar)

let test_reward_cached () =
  let oracle = Neurovec.Reward.create [| prog "t" simple_src |] in
  let a = { Rl.Spaces.vf_idx = 2; if_idx = 1 } in
  ignore (Neurovec.Reward.reward oracle 0 a);
  let evals = oracle.Neurovec.Reward.evaluations in
  ignore (Neurovec.Reward.reward oracle 0 a);
  Alcotest.(check int) "memoized" evals oracle.Neurovec.Reward.evaluations

let big_body_src =
  (* a large loop body: extreme VF x IF blows up the compile-time model *)
  let stmts =
    List.init 24 (fun k ->
        Printf.sprintf "    a[i] = a[i] + b[i] * %d; c[i] = a[i] ^ c[i];" (k + 1))
  in
  Printf.sprintf
    "int a[512]; int b[512]; int c[512];\n\
     int kernel() {\n\
    \  int i;\n\
    \  for (i = 0; i < 512; i++) {\n%s\n  }\n\
    \  return a[0] + c[0];\n\
     }\n"
    (String.concat "\n" stmts)

let test_reward_timeout_penalty () =
  let oracle = Neurovec.Reward.create [| prog "big" big_body_src |] in
  let extreme =
    { Rl.Spaces.vf_idx = Rl.Spaces.n_vf - 1; if_idx = Rl.Spaces.n_if - 1 }
  in
  let r = Neurovec.Reward.reward oracle 0 extreme in
  Alcotest.(check (float 1e-9)) "penalty -9" (-9.0) r

(* Regression: exec_seconds used to detect the compile-timeout penalty by
   comparing the reward against the penalty value, so a genuinely terrible
   action (real reward <= penalty) was misreported as a timeout.  With a
   tiny |penalty| and a timeout factor no action can hit, every action's
   time must still satisfy t = t_base * (1 - r). *)
let test_exec_seconds_not_penalty_sentinel () =
  let oracle =
    Neurovec.Reward.create ~timeout_factor:1e9 ~penalty:(-0.0001)
      [| prog "t" simple_src |]
  in
  let t_base, _ = Neurovec.Reward.baseline oracle 0 in
  List.iter
    (fun a ->
      let r = Neurovec.Reward.reward oracle 0 a in
      let s = Neurovec.Reward.exec_seconds oracle 0 a in
      Alcotest.(check (float 1e-9)) "t = tb*(1-r)" (t_base *. (1.0 -. r)) s)
    Rl.Spaces.all_actions;
  (* the regression only bites if some real reward is at or below the
     penalty value — make sure the corpus actually exercises that *)
  Alcotest.(check bool) "some real reward <= penalty" true
    (List.exists
       (fun a -> Neurovec.Reward.reward oracle 0 a <= -0.0001)
       Rl.Spaces.all_actions)

let test_exec_seconds_penalized_action () =
  let oracle = Neurovec.Reward.create [| prog "big" big_body_src |] in
  let extreme =
    { Rl.Spaces.vf_idx = Rl.Spaces.n_vf - 1; if_idx = Rl.Spaces.n_if - 1 }
  in
  Alcotest.(check (float 1e-9)) "penalty reward" (-9.0)
    (Neurovec.Reward.reward oracle 0 extreme);
  let t_base, _ = Neurovec.Reward.baseline oracle 0 in
  Alcotest.(check (float 1e-9)) "timeout time = 10x baseline"
    (10.0 *. t_base)
    (Neurovec.Reward.exec_seconds oracle 0 extreme)

(* One parse + one sema per distinct program, no matter how many actions
   the oracle evaluates: the acceptance criterion of the front-end cache. *)
let test_brute_force_one_parse_per_program () =
  Neurovec.Frontend.clear ();
  Neurovec.Stats.reset ();
  let programs =
    [| prog "a" simple_src; prog "b" two_loops_src; prog "c" nested_src |]
  in
  let oracle = Neurovec.Reward.create programs in
  Array.iteri (fun i _ -> ignore (Neurovec.Reward.brute_force oracle i)) programs;
  Alcotest.(check int) "3 parses" 3
    (Neurovec.Stats.phase_calls Neurovec.Stats.Parse);
  Alcotest.(check int) "3 sema runs" 3
    (Neurovec.Stats.phase_calls Neurovec.Stats.Sema);
  let s = Neurovec.Stats.snapshot () in
  Alcotest.(check int) "3 front-end misses" 3 s.Neurovec.Stats.frontend_misses;
  (* 36 front-end lookups per program (35 actions + 1 baseline) *)
  Alcotest.(check int) "remaining lookups hit" ((3 * 36) - 3)
    s.Neurovec.Stats.frontend_hits;
  (* every (program, action) point compiled exactly once *)
  Alcotest.(check int) "108 evaluations" (3 * 36)
    oracle.Neurovec.Reward.evaluations

(* The reward cache is content-addressed: two programs with identical
   source (different names) share every entry. *)
let test_reward_cache_content_addressed () =
  let programs = [| prog "x" simple_src; prog "same-as-x" simple_src |] in
  let oracle = Neurovec.Reward.create programs in
  let a = { Rl.Spaces.vf_idx = 2; if_idx = 1 } in
  let r0 = Neurovec.Reward.reward oracle 0 a in
  let evals = oracle.Neurovec.Reward.evaluations in
  let r1 = Neurovec.Reward.reward oracle 1 a in
  Alcotest.(check (float 0.0)) "identical reward" r0 r1;
  Alcotest.(check int) "duplicate program costs no evaluation" evals
    oracle.Neurovec.Reward.evaluations;
  Alcotest.(check bool) "cache hit recorded" true
    (oracle.Neurovec.Reward.hits >= 1)

let test_reward_exec_seconds_consistent () =
  let oracle = Neurovec.Reward.create [| prog "t" simple_src |] in
  let a = { Rl.Spaces.vf_idx = 3; if_idx = 1 } in
  let r = Neurovec.Reward.reward oracle 0 a in
  let t_base, _ = Neurovec.Reward.baseline oracle 0 in
  let t = Neurovec.Reward.exec_seconds oracle 0 a in
  Alcotest.(check (float 1e-9)) "r = (tb - t)/tb" r ((t_base -. t) /. t_base)

(* ------------------------------------------------------------------ *)
(* Framework smoke                                                      *)
(* ------------------------------------------------------------------ *)

let test_framework_smoke () =
  let programs = Dataset.Loopgen.generate ~seed:33 30 in
  let fw = Neurovec.Framework.create ~seed:1 programs in
  Alcotest.(check int) "samples" 30 (Array.length fw.Neurovec.Framework.samples);
  let hist =
    Neurovec.Framework.train fw
      ~hyper:{ Rl.Ppo.default_hyper with batch_size = 100 }
      ~total_steps:300
  in
  Alcotest.(check int) "three updates" 3 (List.length hist);
  (* prediction produces decisions for every loop *)
  let decisions =
    Neurovec.Framework.predict_decisions fw.Neurovec.Framework.agent
      programs.(0)
  in
  Alcotest.(check bool) "decisions nonempty" true (decisions <> [])

let suite =
  [
    ( "core.extractor",
      [
        Alcotest.test_case "simple" `Quick test_extract_simple;
        Alcotest.test_case "two loops" `Quick test_extract_two;
        Alcotest.test_case "nested context is outer" `Quick
          test_extract_nested_context_is_outer;
        Alcotest.test_case "no loops" `Quick test_extract_no_loops;
      ] );
    ( "core.injector",
      [
        Alcotest.test_case "visible to parser" `Quick
          test_inject_visible_to_parser;
        Alcotest.test_case "innermost of nest" `Quick
          test_inject_innermost_of_nest;
        Alcotest.test_case "per-loop decisions" `Quick
          test_inject_per_loop_decisions;
        Alcotest.test_case "clear others" `Quick test_inject_clear_others;
        Alcotest.test_case "ordinals agree with extractor" `Quick
          test_inject_ast_ordinals_agree_with_extractor;
      ] );
    ( "core.pipeline",
      [
        Alcotest.test_case "baseline vs pragma" `Quick
          test_pipeline_baseline_vs_pragma;
        Alcotest.test_case "compile time grows" `Quick
          test_pipeline_compile_time_grows;
        Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic;
        Alcotest.test_case "missing kernel" `Quick test_pipeline_missing_kernel;
        Alcotest.test_case "wraps parse errors" `Quick
          test_pipeline_wraps_parse_errors;
        Alcotest.test_case "wraps sema errors" `Quick
          test_pipeline_wraps_sema_errors;
        Alcotest.test_case "cache preserves results" `Quick
          test_frontend_cache_identical_results;
      ] );
    ( "core.reward",
      [
        Alcotest.test_case "sign convention" `Quick test_reward_sign_convention;
        Alcotest.test_case "memoized" `Quick test_reward_cached;
        Alcotest.test_case "timeout penalty" `Quick test_reward_timeout_penalty;
        Alcotest.test_case "exec seconds consistent" `Quick
          test_reward_exec_seconds_consistent;
        Alcotest.test_case "exec seconds without penalty sentinel" `Quick
          test_exec_seconds_not_penalty_sentinel;
        Alcotest.test_case "exec seconds of penalized action" `Quick
          test_exec_seconds_penalized_action;
        Alcotest.test_case "brute force: one parse per program" `Quick
          test_brute_force_one_parse_per_program;
        Alcotest.test_case "content-addressed cache" `Quick
          test_reward_cache_content_addressed;
      ] );
    ( "core.framework",
      [ Alcotest.test_case "end-to-end smoke" `Slow test_framework_smoke ] );
  ]
