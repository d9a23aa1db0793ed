(* Tests for the benchmark corpora: generators, suites, splits. *)

let test_generate_deterministic () =
  let a = Dataset.Loopgen.generate ~seed:9 50 in
  let b = Dataset.Loopgen.generate ~seed:9 50 in
  Alcotest.(check bool) "same corpus" true (a = b);
  let c = Dataset.Loopgen.generate ~seed:10 50 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_generate_count_and_names () =
  let corpus = Dataset.Loopgen.generate ~seed:1 100 in
  Alcotest.(check int) "count" 100 (Array.length corpus);
  let names = Array.map (fun p -> p.Dataset.Program.p_name) corpus in
  let uniq = List.sort_uniq compare (Array.to_list names) in
  Alcotest.(check int) "unique names" 100 (List.length uniq)

let test_generate_family_coverage () =
  let corpus = Dataset.Loopgen.generate ~seed:2 500 in
  let fams =
    Array.to_list corpus
    |> List.map (fun p -> p.Dataset.Program.p_family)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool)
    (Printf.sprintf "many families (%d)" (List.length fams))
    true
    (List.length fams >= 10)

let test_all_generated_compile_and_run () =
  let corpus = Dataset.Loopgen.generate ~seed:3 150 in
  Array.iter
    (fun p ->
      match Neurovec.Pipeline.compile ~plan:Neurovec.Pipeline.Baseline p with
      | r ->
          if not (r.Neurovec.Pipeline.exec_seconds > 0.0) then
            Alcotest.failf "%s: nonpositive time" p.Dataset.Program.p_name
      | exception e ->
          Alcotest.failf "%s failed: %s" p.Dataset.Program.p_name
            (Printexc.to_string e))
    corpus

let test_generated_semantics_stable_under_vectorization () =
  (* the generated corpus must be safe for any pragma the agent can pick *)
  let corpus = Dataset.Loopgen.generate ~seed:4 40 in
  Array.iter
    (fun p ->
      let run src =
        let m =
          Ir_lower.lower_program ~bindings:p.Dataset.Program.p_bindings
            (Minic.Parser.parse_string src)
        in
        ignore (Vectorizer.Licm.run_modul m);
        ignore (Vectorizer.Cse.run_modul m);
        ignore (Vectorizer.Licm.run_modul m);
        ignore (Vectorizer.Planner.run_modul m);
        let fn =
          List.find
            (fun f -> f.Ir.fn_name = p.Dataset.Program.p_kernel)
            m.Ir.m_funcs
        in
        let st = Ir_interp.init_state m in
        let r = Ir_interp.run_func st fn () in
        (r, Ir_interp.state_fingerprint st r)
      in
      let scalar =
        run (Neurovec.Injector.inject_all p.Dataset.Program.p_source ~vf:1 ~if_:1)
      in
      let vec =
        run (Neurovec.Injector.inject_all p.Dataset.Program.p_source ~vf:8 ~if_:2)
      in
      (* float kernels may reassociate reductions; only integer-exact
         programs are compared strictly *)
      let is_float =
        let s = p.Dataset.Program.p_source in
        let has sub =
          let re = ref false in
          let ls = String.length s and lsub = String.length sub in
          for i = 0 to ls - lsub do
            if String.sub s i lsub = sub then re := true
          done;
          !re
        in
        has "float" || has "double"
      in
      if (not is_float) && scalar <> vec then
        Alcotest.failf "%s: vectorization changed semantics"
          p.Dataset.Program.p_name)
    corpus

let test_split_proportions () =
  let corpus = Dataset.Loopgen.generate ~seed:5 200 in
  let train, test = Dataset.Loopgen.train_test_split corpus in
  Alcotest.(check int) "test 20%" 40 (Array.length test);
  Alcotest.(check int) "train 80%" 160 (Array.length train);
  (* disjoint *)
  let test_names =
    Array.to_list test |> List.map (fun p -> p.Dataset.Program.p_name)
  in
  Array.iter
    (fun p ->
      if List.mem p.Dataset.Program.p_name test_names then
        Alcotest.fail "train/test overlap")
    train

let test_suites_compile () =
  List.iter
    (fun (label, progs) ->
      Array.iter
        (fun p ->
          match
            Neurovec.Pipeline.compile ~plan:Neurovec.Pipeline.Baseline p
          with
          | _ -> ()
          | exception e ->
              Alcotest.failf "%s/%s: %s" label p.Dataset.Program.p_name
                (Printexc.to_string e))
        progs)
    [ ("llvm", Dataset.Llvm_suite.programs);
      ("polybench", Dataset.Polybench.programs);
      ("mibench", Dataset.Mibench.programs) ]

let test_suite_sizes () =
  Alcotest.(check bool) "llvm suite >= 15" true
    (Array.length Dataset.Llvm_suite.programs >= 15);
  Alcotest.(check int) "6 polybench" 6 (Array.length Dataset.Polybench.programs);
  Alcotest.(check int) "6 mibench" 6 (Array.length Dataset.Mibench.programs)

let test_ten_thousand_corpus () =
  (* the paper's dataset size: >10,000 generated loop programs; generation
     must be fast and name-unique *)
  let corpus = Dataset.Loopgen.generate ~seed:6 10_000 in
  Alcotest.(check int) "10k programs" 10_000 (Array.length corpus);
  let h = Hashtbl.create 10_000 in
  Array.iter (fun p -> Hashtbl.replace h p.Dataset.Program.p_source ()) corpus;
  Alcotest.(check bool)
    (Printf.sprintf "high source diversity (%d distinct)" (Hashtbl.length h))
    true
    (Hashtbl.length h > 5_000)

let suite =
  [
    ( "dataset",
      [
        Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
        Alcotest.test_case "count and names" `Quick test_generate_count_and_names;
        Alcotest.test_case "family coverage" `Quick test_generate_family_coverage;
        Alcotest.test_case "all compile and run" `Slow
          test_all_generated_compile_and_run;
        Alcotest.test_case "vectorization-safe corpus" `Slow
          test_generated_semantics_stable_under_vectorization;
        Alcotest.test_case "train/test split" `Quick test_split_proportions;
        Alcotest.test_case "suites compile" `Quick test_suites_compile;
        Alcotest.test_case "suite sizes" `Quick test_suite_sizes;
        Alcotest.test_case "10k corpus" `Slow test_ten_thousand_corpus;
      ] );
  ]
