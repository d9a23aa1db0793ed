(* The parallel evaluation engine and its determinism contract.

   Three layers:
   - Parpool itself: ordering, exception choice, nesting, jobs=1 serial
     path, with_jobs restoration.
   - Equivalence: a --jobs 4 run must be bit-identical to --jobs 1 —
     reward tables, quarantine reports, probe results, and the bytes of a
     checkpoint written after training — including under an active fault
     spec (compile failures, traps, fuel, timeout spikes, timing noise).
   - Stress: four domains hammering one oracle's caches keep the merged
     statistics coherent and the cached values equal to a serial rerun. *)

let faults =
  Neurovec.Faults.create ~seed:7 ~compile:0.06 ~trap:0.05 ~fuel:0.04
    ~timeout:0.04 ~noise:0.08 ~tail:0.03 ()

let fault_options =
  { Neurovec.Pipeline.default_options with Neurovec.Pipeline.faults }

let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* Parpool                                                              *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  let xs = Array.init 100 Fun.id in
  let squares = Neurovec.Parpool.map ~jobs:4 (fun i -> i * i) xs in
  Alcotest.(check (array int))
    "input order" (Array.map (fun i -> i * i) xs) squares

let test_map_serial_path () =
  let xs = Array.init 10 Fun.id in
  Alcotest.(check (array int))
    "jobs=1 = Array.map"
    (Array.map succ xs)
    (Neurovec.Parpool.map ~jobs:1 succ xs)

let test_map_lowest_exception () =
  (* indices 10 and 30 raise; a serial left-to-right run surfaces 10 *)
  match
    Neurovec.Parpool.map ~jobs:4
      (fun i -> if i = 10 || i = 30 then failwith (string_of_int i) else i)
      (Array.init 50 Fun.id)
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> Alcotest.(check string) "lowest index" "10" msg

let test_map_nested_runs_serial () =
  (* nested maps must degrade to the serial path inside workers (and still
     compute the right thing) *)
  let outer =
    Neurovec.Parpool.map ~jobs:4
      (fun i ->
        Array.fold_left ( + ) 0
          (Neurovec.Parpool.map ~jobs:4 (fun j -> (i * 100) + j)
             (Array.init 10 Fun.id)))
      (Array.init 4 Fun.id)
  in
  Alcotest.(check (array int))
    "nested results"
    (Array.init 4 (fun i -> (i * 1000) + 45))
    outer

let test_with_jobs_restores () =
  let before = Neurovec.Parpool.jobs () in
  Neurovec.Parpool.with_jobs 3 (fun () ->
      Alcotest.(check int) "inside" 3 (Neurovec.Parpool.jobs ()));
  Alcotest.(check int) "restored" before (Neurovec.Parpool.jobs ());
  (match
     Neurovec.Parpool.with_jobs 5 (fun () -> failwith "boom")
   with
  | () -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "restored after raise" before (Neurovec.Parpool.jobs ())

(* ------------------------------------------------------------------ *)
(* Serial vs parallel equivalence                                       *)
(* ------------------------------------------------------------------ *)

(* a fresh sweep of the same corpus at a given pool size; fresh caches
   so the second run cannot coast on the first run's memoization *)
let sweep ?(options = fault_options) ~jobs
    (programs : Dataset.Program.t array) =
  Neurovec.Frontend.clear ();
  let oracle = Neurovec.Reward.create ~options programs in
  let results =
    Neurovec.Parpool.with_jobs jobs (fun () ->
        Neurovec.Reward.sweep_all oracle)
  in
  (results, Neurovec.Reward.quarantine_report oracle)

let check_sweeps_equal (a_results, a_quar) (b_results, b_quar) =
  Alcotest.(check int) "lengths" (Array.length a_results)
    (Array.length b_results);
  Array.iteri
    (fun i s ->
      match (s, b_results.(i)) with
      | None, None -> ()
      | Some (sa, sr), Some (pa, pr) ->
          Alcotest.(check bool)
            (Printf.sprintf "program %d best action" i)
            true (sa = pa);
          Alcotest.(check int64)
            (Printf.sprintf "program %d reward bits" i)
            (bits sr) (bits pr)
      | _ -> Alcotest.failf "program %d: quarantine state diverged" i)
    a_results;
  Alcotest.(check (list (pair string string))) "quarantine report" a_quar
    b_quar

let test_sweep_bit_identical () =
  let programs = Dataset.Loopgen.generate ~seed:33 10 in
  check_sweeps_equal (sweep ~jobs:1 programs) (sweep ~jobs:4 programs)

let test_probe_samples_identical () =
  let programs = Dataset.Loopgen.generate ~seed:44 12 in
  let probe ~jobs =
    Neurovec.Frontend.clear ();
    let agent =
      Rl.Agent.create ~hidden:[ 8 ] ~space:Rl.Spaces.Discrete
        (Nn.Rng.create 5)
    in
    let oracle = Neurovec.Reward.create ~options:fault_options programs in
    Neurovec.Parpool.with_jobs jobs (fun () ->
        Neurovec.Framework.probe_samples agent oracle programs)
  in
  let s_samples, s_skipped = probe ~jobs:1 in
  let p_samples, p_skipped = probe ~jobs:4 in
  Alcotest.(check (list (pair string string))) "skipped" s_skipped p_skipped;
  Alcotest.(check int) "sample count" (Array.length s_samples)
    (Array.length p_samples);
  Array.iteri
    (fun i s ->
      Alcotest.(check int) "s_id" s.Rl.Ppo.s_id p_samples.(i).Rl.Ppo.s_id;
      Alcotest.(check bool)
        "embedding ids" true
        (s.Rl.Ppo.s_ids = p_samples.(i).Rl.Ppo.s_ids))
    s_samples

(* training end to end: same corpus, same seed, same faults -> the bytes
   of the saved checkpoint must not depend on the pool size *)
let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let train_checkpoint ?(batched = true) ?(options = fault_options) ~jobs path =
  Neurovec.Frontend.clear ();
  Neurovec.Parpool.with_jobs jobs (fun () ->
      let corpus = Dataset.Loopgen.generate ~seed:55 16 in
      let fw =
        Neurovec.Framework.create ~options ~seed:3 corpus
      in
      ignore
        (Neurovec.Framework.train fw ~batched
           ~hyper:{ Rl.Ppo.default_hyper with batch_size = 64 }
           ~total_steps:192);
      Rl.Checkpoint.save fw.Neurovec.Framework.agent path)

let with_two_checkpoints f =
  let p1 = Filename.temp_file "neurovec_ckpt_a" ".agent" in
  let p2 = Filename.temp_file "neurovec_ckpt_b" ".agent" in
  Fun.protect
    ~finally:(fun () -> Sys.remove p1; Sys.remove p2)
    (fun () -> f p1 p2)

let test_training_checkpoint_bytes_identical () =
  with_two_checkpoints (fun p1 p4 ->
      train_checkpoint ~jobs:1 p1;
      train_checkpoint ~jobs:4 p4;
      Alcotest.(check bool)
        "checkpoint bytes identical" true
        (read_file p1 = read_file p4))

(* ------------------------------------------------------------------ *)
(* Batched vs scalar rollouts: trained-checkpoint bytes                 *)
(* ------------------------------------------------------------------ *)

(* the batched rollout path (forward_batch + pre-drawn randomness) must
   be invisible end to end: training the same corpus with the same seed
   writes byte-identical checkpoints whether rollouts run scalar or
   batched, serial or across the pool, with or without injected faults *)

let test_batched_checkpoint_bytes_identical () =
  with_two_checkpoints (fun ps pb ->
      train_checkpoint ~batched:false ~jobs:1 ps;
      train_checkpoint ~batched:true ~jobs:1 pb;
      Alcotest.(check bool)
        "scalar and batched rollouts write identical checkpoints" true
        (read_file ps = read_file pb))

let test_batched_checkpoint_pool () =
  with_two_checkpoints (fun ps pb ->
      train_checkpoint ~batched:false ~jobs:1 ps;
      train_checkpoint ~batched:true ~jobs:4 pb;
      Alcotest.(check bool)
        "scalar serial vs batched 4-domain pool, faults active" true
        (read_file ps = read_file pb))

let test_batched_checkpoint_no_faults () =
  let options = Neurovec.Pipeline.default_options in
  with_two_checkpoints (fun ps pb ->
      train_checkpoint ~options ~batched:false ~jobs:1 ps;
      train_checkpoint ~options ~batched:true ~jobs:4 pb;
      Alcotest.(check bool)
        "scalar vs batched pool on a clean pipeline" true
        (read_file ps = read_file pb))

(* ------------------------------------------------------------------ *)
(* Cache stress                                                         *)
(* ------------------------------------------------------------------ *)

let test_reward_cache_stress () =
  let programs = Dataset.Loopgen.generate ~seed:66 3 in
  Neurovec.Frontend.clear ();
  Neurovec.Stats.reset ();
  let oracle = Neurovec.Reward.create programs in
  let work = Array.init 300 Fun.id in
  let hammer =
    Neurovec.Parpool.map ~jobs:4
      (fun i ->
        Neurovec.Reward.reward oracle (i mod 3)
          (Rl.Spaces.of_flat (i mod Rl.Spaces.n_flat)))
      work
  in
  (* merged counters stay coherent: every lookup recorded exactly one hit
     or one miss, whatever the interleaving *)
  let snap = Neurovec.Stats.snapshot () in
  Alcotest.(check int) "hits + misses = lookups" 300
    (snap.Neurovec.Stats.reward_hits + snap.Neurovec.Stats.reward_misses);
  Alcotest.(check bool)
    "every distinct point missed at least once" true
    (snap.Neurovec.Stats.reward_misses >= 105);
  (* only 3 distinct programs ever hit the front end *)
  Alcotest.(check int) "front-end cache size" 3 (Neurovec.Frontend.size ());
  (* and the cached values equal a serial recomputation *)
  Array.iteri
    (fun i r ->
      let expect =
        Neurovec.Reward.reward oracle (i mod 3)
          (Rl.Spaces.of_flat (i mod Rl.Spaces.n_flat))
      in
      Alcotest.(check int64)
        (Printf.sprintf "work item %d" i)
        (bits expect) (bits r))
    hammer

let suite =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_map_order;
        Alcotest.test_case "jobs=1 serial path" `Quick test_map_serial_path;
        Alcotest.test_case "lowest-index exception" `Quick
          test_map_lowest_exception;
        Alcotest.test_case "nested maps run serial" `Quick
          test_map_nested_runs_serial;
        Alcotest.test_case "with_jobs restores" `Quick test_with_jobs_restores;
      ] );
    ( "parallel.equivalence",
      [
        Alcotest.test_case "sweep bit-identical under faults" `Slow
          test_sweep_bit_identical;
        Alcotest.test_case "probe_samples identical" `Slow
          test_probe_samples_identical;
        Alcotest.test_case "training checkpoints byte-identical" `Slow
          test_training_checkpoint_bytes_identical;
      ] );
    ( "batched.checkpoint",
      [
        Alcotest.test_case "scalar vs batched rollouts" `Slow
          test_batched_checkpoint_bytes_identical;
        Alcotest.test_case "scalar vs batched pool under faults" `Slow
          test_batched_checkpoint_pool;
        Alcotest.test_case "scalar vs batched pool, no faults" `Slow
          test_batched_checkpoint_no_faults;
      ] );
    ( "parallel.stress",
      [
        Alcotest.test_case "4 domains on one reward cache" `Quick
          test_reward_cache_stress;
      ] );
  ]
