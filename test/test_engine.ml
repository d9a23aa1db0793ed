(* The evaluation engine against frozen digests.

   The engine once had a second, per-action implementation that re-lowered
   every point; it was deleted after these digests were taken from it
   (commit 6e1c3b5), so they pin the bits that implementation computed:
   - the best action, reward bits and quarantine report of a brute-force
     sweep over a fixed corpus, with and without an active fault spec;
   - the cycles, compile time and planner report of per-loop plans over a
     seeded Loopgen corpus, every PolyBench kernel and hand-written edge
     cases, with Polly off and on.
   Each check runs at Parpool jobs 1 and 4. *)

let bits = Int64.bits_of_float

let digest_lines (ls : string list) : string =
  Digest.to_hex (Digest.string (String.concat "\n" ls))

(* ------------------------------------------------------------------ *)
(* Brute-force sweeps                                                   *)
(* ------------------------------------------------------------------ *)

let engine_corpus () =
  Array.append
    (Array.sub Dataset.Llvm_suite.programs 0 4)
    (Dataset.Loopgen.generate ~seed:77 8)

let fault_options =
  { Neurovec.Pipeline.default_options with
    Neurovec.Pipeline.faults =
      Neurovec.Faults.create ~seed:7 ~compile:0.06 ~trap:0.05 ~fuel:0.04
        ~timeout:0.04 ~noise:0.08 ~tail:0.03 () }

let frozen_sweep_plain = "1c975237b6f62f055883e88d255d5eeb"
let frozen_sweep_faults = "6be1ad9a7950d3def2a63d42eacb19dc"

(* one line per program (best action and reward bits, or "-" when
   quarantined), then the quarantine report *)
let sweep_digest ~options ~jobs : string =
  Neurovec.Frontend.clear ();
  let oracle = Neurovec.Reward.create ~options (engine_corpus ()) in
  let results =
    Neurovec.Parpool.with_jobs jobs (fun () ->
        Neurovec.Reward.sweep_all oracle)
  in
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i r ->
      match r with
      | None -> Printf.bprintf b "%d:-\n" i
      | Some (a, reward) ->
          Printf.bprintf b "%d:%d,%d:%Lx\n" i (Rl.Spaces.vf_of a)
            (Rl.Spaces.if_of a) (bits reward))
    results;
  List.iter
    (fun (name, why) -> Printf.bprintf b "q:%s:%s\n" name why)
    (Neurovec.Reward.quarantine_report oracle);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_sweep ~options ~frozen () =
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "sweep digest at jobs %d" jobs)
        frozen (sweep_digest ~options ~jobs))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Per-loop plans                                                       *)
(* ------------------------------------------------------------------ *)

let frozen_per_loop = "8b921d94f0e84c5348f9b20a0737d524"

let edge_programs =
  let mk name src = Dataset.Program.make ~family:"extra" name src in
  [|
    (* the middle for lowers to a non-counted loop and gets no loop id *)
    mk "noncounted"
      "int a[256]; int b[256];\n\
       int kernel() {\n\
      \  int i;\n\
      \  int j;\n\
      \  for (i = 0; i < 256; i++) a[i] = b[i] + 1;\n\
      \  for (j = 1; j < 256; j = j * 2) a[j] = a[j] + 2;\n\
      \  for (i = 0; i < 128; i++) b[i] = a[i] * 3;\n\
      \  return a[3];\n\
       }\n";
    (* the outer loop is innermost once its inner for became a while, and
       keeps its own source pragma; Polly fuses it with its sibling *)
    mk "outer_pragma"
      "int a[64][64]; int b[64];\n\
       int kernel() {\n\
      \  int i;\n\
      \  int j;\n\
      \  #pragma clang loop vectorize_width(4) interleave_count(2)\n\
      \  for (i = 0; i < 64; i++) {\n\
      \    for (j = 1; j < 64; j = j * 2) a[i][j] = a[i][j] + 1;\n\
      \    b[i] = b[i] + i;\n\
      \  }\n\
      \  for (i = 0; i < 64; i++) b[i] = b[i] * 2;\n\
      \  return b[3] + a[2][4];\n\
       }\n";
    (* three siblings Polly fuses into one loop *)
    mk "fusable"
      "float a[4096]; float b[4096]; float c[4096];\n\
       int kernel() {\n\
      \  int i;\n\
      \  for (i = 0; i < 4096; i++) a[i] = b[i] * 2.0;\n\
      \  for (i = 0; i < 4096; i++) c[i] = a[i] + 1.0;\n\
      \  for (i = 0; i < 4096; i++) b[i] = c[i] - a[i];\n\
      \  return (int) c[5];\n\
       }\n";
    mk "source_pragmas"
      "int a[1024]; int b[1024]; float x[1024]; float y[1024];\n\
       int kernel() {\n\
      \  int i;\n\
      \  int s = 0;\n\
      \  #pragma clang loop vectorize_width(8) interleave_count(2)\n\
      \  for (i = 0; i < 1024; i++) a[i] = b[i] + 3;\n\
      \  #pragma clang loop vectorize(disable)\n\
      \  for (i = 0; i < 1024; i++) y[i] = x[i] * 2.0;\n\
      \  #pragma clang loop interleave_count(4)\n\
      \  for (i = 0; i < 1024; i++) s += a[i];\n\
      \  for (i = 0; i < 1024; i++) b[i] = a[i] * 2;\n\
      \  return s;\n\
       }\n";
  |]

let per_loop_corpus () =
  Array.concat
    [ Dataset.Loopgen.generate ~seed:91 14; Dataset.Polybench.programs;
      edge_programs ]

let pragma ?vw ?ic ?enable () : Minic.Ast.loop_pragma =
  { Minic.Ast.vectorize_width = vw; interleave_count = ic;
    vectorize_enable = enable }

(* the decision lists tried on a program with [n] innermost for-loops:
   none, all, a partial list, vectorize(disable), width-only plus
   interleave-only, a pragma requesting nothing, an out-of-range ordinal *)
let decision_lists (n : int) : (int * Minic.Ast.loop_pragma) list list =
  let vfs = [| 1; 2; 4; 8; 16; 64 |] and ifs = [| 1; 2; 4; 8 |] in
  let last = max 0 (n - 1) in
  [
    [];
    List.init n (fun i ->
        (i, pragma ~vw:vfs.(i mod 6) ~ic:ifs.((i + 1) mod 4) ()));
    [ (last, pragma ~vw:16 ~ic:4 ()) ];
    [ (0, pragma ~vw:8 ~enable:false ()) ];
    [ (0, pragma ~vw:8 ()); (last, pragma ~ic:4 ()) ];
    [ (0, pragma ~enable:true ()) ];
    [ (n + 2, pragma ~vw:4 ~ic:4 ()); (0, pragma ~vw:2 ~ic:1 ()) ];
  ]

let plan_str = function
  | None -> "-"
  | Some p ->
      Printf.sprintf "%d,%d" p.Vectorizer.Transform.vf
        p.Vectorizer.Transform.if_

let report_str (r : Vectorizer.Planner.report) =
  String.concat ";"
    (List.map
       (fun d ->
         Printf.sprintf "%d:%s>%s:%b:%s" d.Vectorizer.Planner.d_loop_id
           (plan_str d.Vectorizer.Planner.d_requested)
           (plan_str (Some d.Vectorizer.Planner.d_applied))
           d.Vectorizer.Planner.d_legal
           (String.concat "," d.Vectorizer.Planner.d_reasons))
       r)

(* one line per (options, program, decision list); [measure] must agree
   with [compile] on every point *)
let per_loop_lines ~jobs : string list =
  Neurovec.Frontend.clear ();
  let corpus = per_loop_corpus () in
  let rows =
    List.concat_map
      (fun opts -> List.map (fun p -> (opts, p)) (Array.to_list corpus))
      [ ("plain", Neurovec.Pipeline.default_options);
        ("polly",
         { Neurovec.Pipeline.default_options with
           Neurovec.Pipeline.polly = true }) ]
  in
  let row ((oname, options), p) =
    let n =
      List.length
        (Neurovec.Extractor.extract
           (Neurovec.Frontend.checked p).Neurovec.Frontend.a_ast)
    in
    List.mapi
      (fun k ds ->
        let plan = Neurovec.Pipeline.Per_loop ds in
        let r = Neurovec.Pipeline.compile ~options ~plan p in
        let exec, comp = Neurovec.Pipeline.measure ~options ~plan p in
        if
          bits exec <> bits r.Neurovec.Pipeline.exec_seconds
          || bits comp <> bits r.Neurovec.Pipeline.compile_seconds
        then
          Alcotest.failf "%s/%s/%d: measure disagrees with compile" oname
            p.Dataset.Program.p_name k;
        Printf.sprintf "%s|%s|%d|%Lx %Lx %s" oname p.Dataset.Program.p_name k
          (bits r.Neurovec.Pipeline.exec_cycles)
          (bits r.Neurovec.Pipeline.compile_seconds)
          (report_str r.Neurovec.Pipeline.decisions))
      (decision_lists n)
  in
  List.concat
    (Array.to_list
       (Neurovec.Parpool.with_jobs jobs (fun () ->
            Neurovec.Parpool.map row (Array.of_list rows))))

let test_per_loop () =
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "per-loop digest at jobs %d" jobs)
        frozen_per_loop
        (digest_lines (per_loop_lines ~jobs)))
    [ 1; 4 ]

let suite =
  [
    ( "engine.frozen",
      [
        Alcotest.test_case "sweep, default options" `Slow
          (test_sweep ~options:Neurovec.Pipeline.default_options
             ~frozen:frozen_sweep_plain);
        Alcotest.test_case "sweep under faults" `Slow
          (test_sweep ~options:fault_options ~frozen:frozen_sweep_faults);
        Alcotest.test_case "per-loop plans, Polly off and on" `Slow
          test_per_loop;
      ] );
  ]
