(** The repo's benchmark: one command, three workloads, end-to-end metrics
    from an untraced run and per-layer metrics from a separate traced run.

    {v
    main.exe --workload sweep|train|serve-verified --seed N --seconds S
             --trace 0|1 [--tiny]
    v}

    The benchmark drives the program only through its public functions
    ([Reward], [Rl.Ppo.train], [Serve.Server.submit], [Frontend]), times
    those calls from here and reads the [Stats.snapshot] counters.  Inputs
    are generated from [--seed]; the program sees only the generated
    programs.  See [README.md] for the workloads, the metric definitions
    and which layer metric should move which end-to-end metric.

    The last line of standard output is the result object
    [{"correct", "attempted", "failed", "metrics"}]; with [--trace 0] the
    metrics are the end-to-end ones, with [--trace 1] the per-layer ones.
    Every earlier line is a log: the host record, the config, the output
    digest and, when tracing, the per-layer split of the wall time. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** smoke size, for the benchmark's own tests *)
}

let workloads = [ "sweep"; "train"; "serve-verified" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload sweep|train|serve-verified --seed N \
     --seconds S --trace 0|1 [--tiny]";
  exit 2

let parse_args () : args =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and tiny = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: s :: rest ->
        seed := int_of_string_opt s;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | "--tiny" :: rest ->
        tiny := true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0.0 ->
      { workload = !workload; seed; seconds; trace; tiny = !tiny }
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("goodput_per_s", "1/s");
    ("latency_p50_ms", "ms"); ("speedup_geomean", "x") ]

let families =
  Array.to_list (Array.map fst Dataset.Loopgen.families)

let per_layer =
  [ ("frontend.checked_us", "us"); ("frontend.prevec_us", "us");
    ("reward.entry_us", "us"); ("pipeline.licm_cse_us", "us");
    ("pipeline.vectorize_us", "us"); ("pipeline.timing_us", "us");
    ("ppo.update_ms", "ms"); ("ppo.rollout_ms", "ms"); ("ppo.reward_ms", "ms");
    ("verify.vm_steps_per_miss", "count"); ("cache.verify_hit", "share");
    ("cache.verify_base", "count"); ("cache.vm_code_hit", "share");
    ("cache.vm_code_base", "count"); ("cache.point_memo_hit", "share");
    ("cache.point_memo_base", "count"); ("cache.timing_memo_hit", "share");
    ("cache.timing_memo_base", "count"); ("cache.reward_hit", "share");
    ("cache.reward_base", "count"); ("store.hit", "share");
    ("store.base", "count"); ("serve.service_ms.hit", "ms");
    ("serve.service_ms.miss", "ms") ]
  @ List.map (fun f -> ("serve.service_ms.miss." ^ f, "ms")) families
  @ [ ("serve.batch_size_mean", "count"); ("serve.outstanding_max", "count");
      ("sweep.p99_ms", "ms"); ("serve.p99_ms", "ms");
      ("serve.slo_share", "share"); ("serve.failed_share", "share");
      ("serve.tail_gemm_share", "share"); ("fsio.journal_bytes", "bytes");
      ("fsio.store_bytes", "bytes"); ("loadgen.late_ms", "ms");
      ("trace.overhead_share", "share"); ("trace.accounted_share", "share") ]

(** What one pass of a workload measured. *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks; empty when correct *)
  digest : string;  (** the outputs that must repeat for one seed *)
  work_s : float;  (** measured wall time, for the tracing overhead *)
  work_units : float;  (** operations done in [work_s] *)
  e2e : (string * float) list;
  layer : (string * float) list;  (** per-layer values read from counters *)
}

let median (xs : float list) : float =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* nearest-rank percentile *)
let percentile (xs : float list) (p : float) : float =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let mean (xs : float list) : float =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean (xs : float list) : float =
  match xs with
  | [] -> 0.0
  | _ -> exp (mean (List.map log xs))

let ratio (a : int) (b : int) : float =
  if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* per-layer values every workload reads from the Stats counters *)
let counter_layers (s : Neurovec.Stats.snapshot) : (string * float) list =
  let open Neurovec.Stats in
  let phase_us name =
    match List.find_opt (fun (n, _, _) -> n = name) s.phases with
    | Some (_, secs, calls) when calls > 0 ->
        1e6 *. secs /. float_of_int calls
    | _ -> 0.0
  in
  let hit name hits misses =
    [ ("cache." ^ name ^ "_hit", ratio hits (hits + misses));
      ("cache." ^ name ^ "_base", float_of_int (hits + misses)) ]
  in
  [ ("pipeline.licm_cse_us", phase_us "licm+cse");
    ("pipeline.vectorize_us", phase_us "vectorize");
    ("pipeline.timing_us", phase_us "timing");
    ("verify.vm_steps_per_miss", ratio s.vm_steps s.verify_misses) ]
  @ hit "verify" s.verify_hits s.verify_misses
  @ hit "vm_code" s.vm_cache_hits s.vm_cache_misses
  @ hit "point_memo" s.point_hits s.point_misses
  @ hit "timing_memo" s.timing_memo_hits s.timing_memo_misses
  @ hit "reward" s.reward_hits s.reward_misses
  @ [ ("store.hit", ratio s.store_hits (s.store_hits + s.store_misses));
      ("store.base", float_of_int (s.store_hits + s.store_misses));
      ("serve.batch_size_mean", ratio s.serve_batched s.serve_batches) ]

(* ------------------------------------------------------------------ *)
(* Inputs and files                                                     *)
(* ------------------------------------------------------------------ *)

(** [per_family] distinct programs of every Loopgen family, in blocks
    that hold one program of each family in a seeded order, so every
    prefix has nearly the same family mix.  Fixing the mix keeps the work
    per run steady across seeds while the programs themselves vary. *)
let stratified ~(seed : int) ~(per_family : int) : Dataset.Program.t array =
  let rng = Nn.Rng.create seed in
  let fams = Array.of_list families in
  let k = Array.length fams in
  let by_family = Hashtbl.create k and seen = Hashtbl.create 256 in
  let need = ref (per_family * k) and idx = ref 0 in
  while !need > 0 do
    let p = Dataset.Loopgen.generate_one rng !idx in
    incr idx;
    let fam = p.Dataset.Program.p_family in
    let have = Option.value ~default:[] (Hashtbl.find_opt by_family fam) in
    let h = Neurovec.Frontend.hash_program p in
    if List.length have < per_family && not (Hashtbl.mem seen h) then begin
      Hashtbl.replace by_family fam (p :: have);
      Hashtbl.replace seen h ();
      decr need
    end
  done;
  let columns =
    Hashtbl.fold (fun f ps acc -> (f, Array.of_list (List.rev ps)) :: acc)
      by_family []
  in
  Array.concat
    (List.init per_family (fun b ->
         Nn.Rng.shuffle rng fams;
         Array.map (fun f -> (List.assoc f columns).(b)) fams))

(* everything the benchmark writes lives under this directory of the
   checkout it runs in *)
let work_root = ".bench_work"

let rec mkdir_p (d : string) : unit =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf (p : string) : unit =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

let run_dir () : string =
  let d =
    Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  rm_rf d;
  mkdir_p d;
  d

let file_size (path : string) : int =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let read_file (path : string) : string =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let bits (f : float) : string = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(** Repeat [setup] [reps] times from cold, tearing down all but the last
    result with [discard]; returns it with every set-up time, whose median
    is the workload's [setup_s]. *)
let timed_setups ?(discard = ignore) ~(reps : int) (setup : unit -> 'a) :
    'a * float list =
  let rec go k times =
    let t0 = now () in
    let v = setup () in
    let times = (now () -. t0) :: times in
    if k <= 1 then (v, times)
    else begin
      discard v;
      go (k - 1) times
    end
  in
  go reps []

(* ------------------------------------------------------------------ *)
(* sweep: brute force over the (VF, IF) grid, cold caches               *)
(* ------------------------------------------------------------------ *)

let n_actions = List.length Rl.Spaces.all_actions

(* one program's brute force, spanned layer by layer when tracing: the
   front end and the baseline are asked for first and every action's
   entry is evaluated in the grid's order (one span for all of them), so
   [Reward.brute_force] then only reads memoized entries and takes its
   argmax *)
let sweep_program ~(repeat : int) (oracle : Neurovec.Reward.t)
    (p : Dataset.Program.t) (idx : int) : (Rl.Spaces.action * float) option =
  Trace.span ~parent:repeat ~req:idx "sweep.program" (fun parent ->
      if !Trace.on then begin
        let open Neurovec in
        let sp name f = Trace.span ~parent ~req:idx name (fun _ -> f ()) in
        match
          ignore (sp "frontend.checked" (fun () -> Frontend.checked p));
          ignore (sp "frontend.prevec" (fun () -> Frontend.prevec p));
          ignore (sp "reward.baseline" (fun () -> Reward.baseline oracle idx));
          sp "reward.entries" (fun () ->
              List.iter
                (fun a -> ignore (Neurovec.Reward.entry oracle idx a))
                Rl.Spaces.all_actions)
        with
        | () -> ()
        | exception
            (Neurovec.Reward.Quarantined _ | Neurovec.Frontend.Compile_error _)
          ->
            (* brute force below meets the same failure and reports it *)
            ()
      end;
      Trace.span ~parent ~req:idx "reward.brute_force" (fun _ ->
          match Neurovec.Reward.brute_force oracle idx with
          | best -> Some best
          | exception Neurovec.Reward.Quarantined _ -> None))

let run_sweep (a : args) : outcome =
  let per_family = if a.tiny then 1 else 20 in
  let (programs, _), setup_s =
    timed_setups ~reps:9 (fun () ->
        Neurovec.Frontend.clear ();
        let programs = stratified ~seed:a.seed ~per_family in
        (programs, Neurovec.Reward.create programs))
  in
  Neurovec.Stats.reset ();
  let n = Array.length programs in
  let lat = Array.make n [] and busy = ref 0.0 and repeats = ref 0 in
  let digests = ref [] and first = ref [||] in
  let deadline = now () +. a.seconds in
  while !repeats = 0 || now () < deadline do
    Neurovec.Frontend.clear ();
    Trace.span ~req:!repeats "sweep.repeat" (fun repeat ->
        let t0 = now () in
        let oracle = Neurovec.Reward.create programs in
        let results =
          Array.mapi
            (fun idx p ->
              let s = now () in
              let r = sweep_program ~repeat oracle p idx in
              lat.(idx) <- (now () -. s) :: lat.(idx);
              r)
            programs
        in
        busy := !busy +. (now () -. t0);
        if !repeats = 0 then first := results;
        let b = Buffer.create (n * 24) in
        Array.iter
          (function
            | Some (act, r) ->
                Buffer.add_string b
                  (Printf.sprintf "%d,%d,%s;" (Rl.Spaces.vf_of act)
                     (Rl.Spaces.if_of act) (bits r))
            | None -> Buffer.add_string b "Q;")
          results;
        digests := Digest.to_hex (Digest.string (Buffer.contents b)) :: !digests
    );
    incr repeats
  done;
  let snap = Neurovec.Stats.snapshot () in
  let quarantined =
    Array.fold_left (fun k r -> if r = None then k + 1 else k) 0 !first
  in
  let digest = List.hd !digests in
  let problems =
    (if List.exists (( <> ) digest) !digests then
       [ "sweep repeats of one corpus disagree on best actions or rewards" ]
     else [])
  in
  (* speed-up of the best action over the baseline cost model's choice:
     exec_best = exec_base * (1 - reward) *)
  let speedups =
    Array.to_list !first
    |> List.filter_map (Option.map (fun (_, r) -> 1.0 /. (1.0 -. r)))
  in
  let actions = !repeats * n * n_actions in
  (* each program's latency is its median over the repeats, which keeps
     bursts of host noise out of both the rate and the percentile *)
  let typical = Array.to_list (Array.map median lat) in
  Printf.printf
    "config: %d programs (%d per family), %d repeats, no faults, verify off\n"
    n per_family !repeats;
  { attempted = !repeats * n; failed = !repeats * quarantined; problems; digest;
    work_s = !busy; work_units = float_of_int actions;
    e2e =
      [ ("setup_s", median setup_s);
        ( "goodput_per_s",
          float_of_int (n * n_actions) /. List.fold_left ( +. ) 0.0 typical );
        ("latency_p50_ms", 1e3 *. median typical);
        ("speedup_geomean", geomean speedups) ];
    layer =
      counter_layers snap
      @ [ ("sweep.p99_ms", 1e3 *. percentile typical 0.99) ] }

(* ------------------------------------------------------------------ *)
(* train: PPO against the reward oracle, as Framework.train runs it     *)
(* ------------------------------------------------------------------ *)

(* the training noise spec: timing noise turns on median-of-k resampling
   in the reward oracle; no discrete faults, so no evaluation fails *)
let train_faults = Neurovec.Faults.create ~seed:7 ~noise:0.08 ~tail:0.03 ()

(* one training job from cold: set up, train [total_steps] steps, then
   check the saved policy *)
type job = {
  j_setup_s : float list;
  j_train_s : float;
  j_update_wall : float list;  (** per update, seconds *)
  j_update : float list;  (** PPO epochs + sentinel check per update *)
  j_rollout : float list;  (** rollout minus rewards per update *)
  j_reward : float list;  (** reward calls per update *)
  j_greedy : float;
  j_speedups : float list;
  j_digest : string;
  j_problems : string list;
  j_snap : Neurovec.Stats.snapshot;
  j_journal_bytes : int;
  j_summary : string;
}

let train_job (a : args) ~(dir : string) ~per_family ~hyper ~total_steps : job
    =
  let batch = hyper.Rl.Ppo.batch_size in
  let options =
    { Neurovec.Pipeline.default_options with faults = train_faults }
  in
  let journal = Filename.concat dir "reward.journal" in
  let ckpt = Filename.concat dir "agent.ckpt" in
  let fw, setup_s =
    timed_setups ~reps:3
      ~discard:(fun fw ->
        Neurovec.Reward.close_journal fw.Neurovec.Framework.oracle)
      (fun () ->
        Neurovec.Frontend.clear ();
        (try Sys.remove journal with Sys_error _ -> ());
        let programs = stratified ~seed:a.seed ~per_family in
        Trace.span "train.setup" (fun parent ->
            if !Trace.on then
              Array.iteri
                (fun i p ->
                  Trace.span ~parent ~req:i "frontend.checked" (fun _ ->
                      try ignore (Neurovec.Frontend.checked p)
                      with Neurovec.Frontend.Compile_error _ -> ());
                  Trace.span ~parent ~req:i "frontend.prevec" (fun _ ->
                      try ignore (Neurovec.Frontend.prevec p)
                      with Neurovec.Frontend.Compile_error _ -> ()))
                programs;
            Trace.span ~parent "framework.create" (fun _ ->
                Neurovec.Framework.create ~options ~journal ~seed:a.seed
                  programs)))
  in
  Neurovec.Stats.reset ();
  let oracle = fw.Neurovec.Framework.oracle in
  (* per-update timing from outside: the reward closure and the progress
     callback bracket every update's rollout, rewards and PPO epochs *)
  let update_s = ref [] and rollout_s = ref [] and reward_s = ref [] in
  let boundary = ref 0.0 and last_reward_end = ref 0.0 in
  let reward_sum = ref 0.0 and upd = ref 1 in
  let root = ref (-1) and rollout_id = ref (-1) in
  let reward idx act =
    let t0 = now () in
    let r = Neurovec.Reward.reward oracle idx act in
    let t1 = now () in
    reward_sum := !reward_sum +. (t1 -. t0);
    last_reward_end := t1;
    ignore (Trace.add ~parent:!rollout_id ~req:!upd "ppo.reward" ~t0 ~t1);
    r
  in
  let progress (_ : Rl.Ppo.stats) =
    let t = now () in
    update_s := (t -. !last_reward_end) :: !update_s;
    rollout_s :=
      (!last_reward_end -. !boundary -. !reward_sum) :: !rollout_s;
    reward_s := !reward_sum :: !reward_s;
    ignore
      (Trace.add ~id:!rollout_id ~parent:!root ~req:!upd "ppo.rollout"
         ~t0:!boundary ~t1:!last_reward_end);
    ignore
      (Trace.add ~parent:!root ~req:!upd "ppo.update" ~t0:!last_reward_end
         ~t1:t);
    boundary := t;
    reward_sum := 0.0;
    incr upd;
    if !Trace.on then rollout_id := Trace.fresh_id ()
  in
  let t0 = now () in
  boundary := t0;
  if !Trace.on then begin
    root := Trace.fresh_id ();
    rollout_id := Trace.fresh_id ()
  end;
  let stats =
    Rl.Ppo.train ~hyper ~progress ~checkpoint_path:ckpt
      ~checkpoint_every:(total_steps / 2) ~keep_checkpoints:3
      ~rollout_jobs:(Neurovec.Parpool.jobs ())
      ~rollout_map:(fun f xs -> Neurovec.Parpool.map f xs)
      fw.Neurovec.Framework.agent ~samples:fw.Neurovec.Framework.samples
      ~reward ~total_steps
  in
  let t1 = now () in
  ignore (Trace.add ~parent:!root "ppo.final_save" ~t0:!boundary ~t1);
  ignore (Trace.add ~id:!root "train" ~t0 ~t1);
  let snap = Neurovec.Stats.snapshot () in
  let samples = fw.Neurovec.Framework.samples in
  let plain_reward idx act = Neurovec.Reward.reward oracle idx act in
  let greedy =
    Rl.Ppo.evaluate fw.Neurovec.Framework.agent ~samples ~reward:plain_reward
  in
  (* the saved checkpoint must reproduce the trained policy exactly *)
  let reloaded = Rl.Checkpoint.load ckpt in
  let greedy' = Rl.Ppo.evaluate reloaded ~samples ~reward:plain_reward in
  let acts =
    Rl.Agent.predict_batch fw.Neurovec.Framework.agent
      (Array.map (fun s -> s.Rl.Ppo.s_ids) samples)
  in
  let speedups =
    Array.to_list
      (Array.mapi
         (fun i (s : Rl.Ppo.sample) ->
           let base, _ = Neurovec.Reward.baseline oracle s.Rl.Ppo.s_id in
           base /. Neurovec.Reward.exec_seconds oracle s.Rl.Ppo.s_id acts.(i))
         samples)
  in
  Neurovec.Reward.close_journal oracle;
  let problems =
    (if bits greedy <> bits greedy' then
       [ "reloaded checkpoint gives another greedy reward" ]
     else [])
    @ (if List.length stats <> total_steps / batch then
         [ Printf.sprintf "expected %d updates, got %d" (total_steps / batch)
             (List.length stats) ]
       else [])
    @ if Float.is_finite greedy then [] else [ "greedy reward is not finite" ]
  in
  let summary =
    Printf.sprintf
      "%d programs (%d per family, %d quarantined), %d steps, batch %d, \
       faults%s, greedy reward %.17g, penalized steps by kind:%s"
      (Array.length fw.Neurovec.Framework.train_programs) per_family
      (List.length fw.Neurovec.Framework.skipped) total_steps batch
      (Neurovec.Faults.descriptor train_faults) greedy
      (String.concat ""
         (List.map
            (fun (k, n) -> Printf.sprintf " %s=%d" k n)
            snap.Neurovec.Stats.failures))
  in
  { j_setup_s = setup_s; j_train_s = t1 -. t0;
    j_update_wall =
      List.map2 ( +. ) (List.map2 ( +. ) !update_s !rollout_s) !reward_s;
    j_update = !update_s; j_rollout = !rollout_s; j_reward = !reward_s;
    j_greedy = greedy; j_speedups = speedups;
    j_digest =
      Digest.to_hex (Digest.string (bits greedy ^ "|" ^ read_file ckpt));
    j_problems = problems; j_snap = snap;
    j_journal_bytes = file_size journal; j_summary = summary }

(* repeated training jobs of a fixed size until --seconds pass: every job
   must reproduce the first one's policy and checkpoint bytes *)
let run_train (a : args) (dir : string) : outcome =
  let per_family = if a.tiny then 1 else 7 in
  let hyper =
    { Rl.Ppo.default_hyper with batch_size = (if a.tiny then 50 else 100) }
  in
  let total_steps = 10 * hyper.Rl.Ppo.batch_size in
  let deadline = now () +. a.seconds in
  let rec go k acc =
    if k > 0 && now () >= deadline then List.rev acc
    else begin
      let jdir = Filename.concat dir (Printf.sprintf "job-%d" k) in
      mkdir_p jdir;
      let j = train_job a ~dir:jdir ~per_family ~hyper ~total_steps in
      rm_rf jdir;
      go (k + 1) (j :: acc)
    end
  in
  let jobs = go 0 [] in
  let first = List.hd jobs in
  let all f = List.concat_map f jobs in
  let ms = List.map (fun s -> 1e3 *. s) in
  let n_jobs = List.length jobs in
  (* a step whose compile time blows the 10x budget earns the paper's
     penalty reward by design; any other failure kind is a failed step *)
  let failed_steps =
    List.fold_left
      (fun k (kind, n) -> if kind = "timeout" then k else k + n)
      0 first.j_snap.Neurovec.Stats.failures
  in
  Printf.printf "config: %d jobs of %s\n" n_jobs first.j_summary;
  { attempted = n_jobs * total_steps; failed = n_jobs * failed_steps;
    problems =
      all (fun j -> j.j_problems)
      @ (if List.exists (fun j -> j.j_digest <> first.j_digest) jobs then
           [ "training jobs of one seed disagree on the policy or checkpoint" ]
         else []);
    digest = first.j_digest;
    work_s = List.fold_left (fun acc j -> acc +. j.j_train_s) 0.0 jobs;
    work_units = float_of_int (n_jobs * total_steps);
    e2e =
      [ ("setup_s", median (all (fun j -> j.j_setup_s)));
        (* the median update, robust to bursts of host noise; the final
           save is in the per-layer split *)
        ( "goodput_per_s",
          float_of_int hyper.Rl.Ppo.batch_size
          /. median (all (fun j -> j.j_update_wall)) );
        ("latency_p50_ms", 1e3 *. median (all (fun j -> j.j_update_wall)));
        ("speedup_geomean", geomean first.j_speedups) ];
    layer =
      counter_layers first.j_snap
      @ [ ("ppo.update_ms", median (ms (all (fun j -> j.j_update))));
          ("ppo.rollout_ms", median (ms (all (fun j -> j.j_rollout))));
          ("ppo.reward_ms", median (ms (all (fun j -> j.j_reward))));
          ("fsio.journal_bytes", float_of_int first.j_journal_bytes) ] }

(* ------------------------------------------------------------------ *)
(* serve-verified: open-loop traffic into a verifying daemon            *)
(* ------------------------------------------------------------------ *)

type request = {
  prog : Dataset.Program.t;
  first : int;  (** index of the request this one repeats; -1 if new *)
}

(** [n] requests: about [repeat_share] of them repeat a program first
    sent at least [lag] requests earlier, the rest are new programs in
    {!stratified} order. *)
let serve_stream ~(seed : int) ~(n : int) ~(repeat_share : float)
    ~(lag : int) : request array =
  let k = List.length families in
  let fresh = stratified ~seed ~per_family:((n + k - 1) / k) in
  let rng = Nn.Rng.create (seed + 1) in
  let reqs = Array.make n { prog = fresh.(0); first = -1 } in
  let firsts = Array.make n 0 and n_first = ref 0 and eligible = ref 0 in
  for i = 0 to n - 1 do
    while !eligible < !n_first && firsts.(!eligible) <= i - lag do
      incr eligible
    done;
    if !eligible > 0 && Nn.Rng.float rng < repeat_share then begin
      let j = firsts.(Nn.Rng.int rng !eligible) in
      reqs.(i) <- { prog = reqs.(j).prog; first = j }
    end
    else begin
      reqs.(i) <- { prog = fresh.(!n_first); first = -1 };
      firsts.(!n_first) <- i;
      incr n_first
    end
  done;
  reqs

(** Drive [reqs] open-loop at [rate] requests per second from a load
    domain of two threads: a generator that submits each request at its
    due time and a collector that awaits the replies in order.  Returns
    the start time and, per request, the submit time, the reply time and
    the reply. *)
let open_loop (server : Serve.Server.t) (reqs : request array) ~(rate : float)
    : float * float array * float array * Serve.Protocol.reply array =
  let n = Array.length reqs in
  let submitted = Array.make n 0.0 and replied = Array.make n 0.0 in
  let replies = Array.make n Serve.Protocol.Pong in
  let boxes = Array.make n None in
  let lock = Mutex.create () and cv = Condition.create () in
  let t0 = now () +. 0.01 in
  let load () =
    let collector =
      Thread.create
        (fun () ->
          for i = 0 to n - 1 do
            let mb =
              Mutex.protect lock (fun () ->
                  while boxes.(i) = None do
                    Condition.wait cv lock
                  done;
                  Option.get boxes.(i))
            in
            replies.(i) <- Serve.Server.await mb;
            replied.(i) <- now ()
          done)
        ()
    in
    Array.iteri
      (fun i r ->
        let wait = t0 +. (float_of_int i /. rate) -. now () in
        if wait > 0.0 then Unix.sleepf wait;
        submitted.(i) <- now ();
        let p = r.prog in
        let mb =
          Serve.Server.submit server
            ~client:(Printf.sprintf "client-%d" (i mod 8))
            ~name:p.Dataset.Program.p_name ~kernel:p.Dataset.Program.p_kernel
            ~source:p.Dataset.Program.p_source
        in
        Mutex.protect lock (fun () ->
            boxes.(i) <- Some mb;
            Condition.broadcast cv))
      reqs;
    Thread.join collector
  in
  Domain.join (Domain.spawn load);
  (t0, submitted, replied, replies)

let agent_seed = 9

(* the latency limit a verified answer must meet to count for the user *)
let slo_ms = 50.0

let run_serve (a : args) (dir : string) : outcome =
  let rate = if a.tiny then 20.0 else 50.0 in
  let n = max 20 (int_of_float (a.seconds *. rate)) in
  let ckpt = Filename.concat dir "serve.ckpt" in
  let store_path = Filename.concat dir "serve.store" in
  let options = { Neurovec.Pipeline.default_options with verify = true } in
  let (reqs, server), setup_s =
    timed_setups ~reps:5 ~discard:(fun (_, s) -> Serve.Server.stop s)
      (fun () ->
        Neurovec.Frontend.clear ();
        List.iter
          (fun f -> try Sys.remove f with Sys_error _ -> ())
          [ ckpt; store_path ];
        let reqs = serve_stream ~seed:a.seed ~n ~repeat_share:0.4 ~lag:50 in
        Rl.Checkpoint.save
          (Rl.Agent.create ~space:Rl.Spaces.Discrete
             (Nn.Rng.create agent_seed))
          ckpt;
        let agent = Rl.Checkpoint.load ckpt in
        (reqs, Serve.Server.create ~options ~store_path ~max_queue:4096 agent))
  in
  Neurovec.Stats.reset ();
  let t0, submitted, replied, replies = open_loop server reqs ~rate in
  let t_end = Array.fold_left max t0 replied in
  Serve.Server.stop server;
  let snap = Neurovec.Stats.snapshot () in
  let due i = t0 +. (float_of_int i /. rate) in
  let family i = reqs.(i).prog.Dataset.Program.p_family in
  let hit i =
    reqs.(i).first >= 0 && replied.(reqs.(i).first) < submitted.(i)
  in
  let encoded = Array.map Serve.Protocol.encode_reply replies in
  let answered = ref [] and shed = ref 0 and unexpected = ref 0 in
  let expected_errors = ref 0 and miscompiled = ref 0 in
  let mismatched = ref 0 in
  let speedups = ref [] in
  let kinds = Hashtbl.create 8 in
  Array.iteri
    (fun i reply ->
      let r = reqs.(i) in
      if r.first >= 0 && encoded.(i) <> encoded.(r.first) then
        incr mismatched;
      match reply with
      | Serve.Protocol.Answer text ->
          answered := i :: !answered;
          let timing_line l =
            String.length l > 9 && String.sub l 0 9 = "baseline:"
          in
          if r.first < 0 then (
            match
              Scanf.sscanf
                (List.find timing_line (String.split_on_char '\n' text))
                "baseline: %f s RL: %f s" (fun b rl -> b /. rl)
            with
            | s -> speedups := s :: !speedups
            | exception (Not_found | Scanf.Scan_failure _ | End_of_file) ->
                incr unexpected)
      | Serve.Protocol.Error (kind, _) ->
          let name = Serve.Protocol.error_name kind in
          Hashtbl.replace kinds name
            (1 + Option.value ~default:0 (Hashtbl.find_opt kinds name));
          (match kind with
          | `Overloaded | `Breaker_open | `Shutting_down -> incr shed
          | `Compile_error when family i = "unknown_bound" ->
              (* the wire carries no bindings, so this family's symbolic
                 bounds cannot be resolved: the typed error is the
                 correct reply *)
              incr expected_errors
          | `Miscompiled ->
              incr miscompiled;
              incr unexpected
          | _ -> incr unexpected)
      | Serve.Protocol.Pong | Serve.Protocol.Stats_reply _ -> incr unexpected)
    replies;
  let answered = List.rev !answered in
  let ms x = 1e3 *. x in
  let latency i = ms (replied.(i) -. due i) in
  let service i = ms (replied.(i) -. submitted.(i)) in
  let all = List.init n Fun.id in
  let misses = List.filter (fun i -> not (hit i)) all in
  let lat_answered = List.map latency answered in
  let p99 = percentile lat_answered 0.99 in
  (* a tail request is gemm-bound when it is a gemm miss itself or a gemm
     miss was answered while it waited: the batcher is single, so every
     request queued behind a slow verification waits for it *)
  let gemm_miss j = (not (hit j)) && family j = "gemm" in
  let tail = List.filter (fun i -> latency i > p99) answered in
  let gemm_bound i =
    gemm_miss i
    || List.exists
         (fun j ->
           gemm_miss j
           && replied.(j) > submitted.(i)
           && replied.(j) <= replied.(i))
         (List.init (i + 1) Fun.id)
  in
  let outstanding_max =
    List.fold_left
      (fun m i ->
        let k = ref 1 in
        for j = 0 to i - 1 do
          if replied.(j) > submitted.(i) then incr k
        done;
        max m !k)
      0 all
  in
  let slo_ok =
    List.length (List.filter (fun i -> latency i <= slo_ms) answered)
  in
  (* the batcher's timeline, in FIFO order: each reply closes the work
     that began when the request arrived or the previous reply left *)
  if !Trace.on then begin
    let root = Trace.fresh_id () in
    let prev = ref t0 in
    Array.iteri
      (fun i _ ->
        let start = max submitted.(i) !prev in
        if submitted.(i) > !prev then
          ignore
            (Trace.add ~parent:root "batcher.idle" ~t0:!prev
               ~t1:submitted.(i));
        if replied.(i) > start then begin
          let cls =
            match replies.(i) with
            | Serve.Protocol.Answer _ when hit i -> "batcher.hit"
            | Serve.Protocol.Answer _ -> "batcher.miss." ^ family i
            | _ -> "batcher.error"
          in
          ignore (Trace.add ~parent:root ~req:i cls ~t0:start ~t1:replied.(i));
          prev := replied.(i)
        end;
        let r = Trace.add ~req:i "request" ~t0:(due i) ~t1:replied.(i) in
        ignore
          (Trace.add ~parent:r ~req:i "request.late" ~t0:(due i)
             ~t1:submitted.(i));
        ignore
          (Trace.add ~parent:r ~req:i "request.service" ~t0:submitted.(i)
             ~t1:replied.(i)))
      reqs;
    ignore (Trace.add ~id:root "serve" ~t0 ~t1:t_end)
  end;
  let by_family =
    List.map
      (fun f ->
        ( "serve.service_ms.miss." ^ f,
          mean
            (List.map service (List.filter (fun i -> family i = f) misses)) ))
      families
  in
  Printf.printf
    "config: %d requests at %g/s (%d new programs, %d store-hit repeats), \
     verify on, %d answered, %d compile-error (unknown_bound), %d shed, %d \
     other failures%s\n"
    n rate
    (Array.fold_left (fun k r -> if r.first < 0 then k + 1 else k) 0 reqs)
    (List.length (List.filter hit all))
    (List.length answered) !expected_errors !shed !unexpected
    (String.concat ""
       (List.map
          (fun (k, c) -> Printf.sprintf ", %s=%d" k c)
          (List.sort compare
             (Hashtbl.fold (fun k c acc -> (k, c) :: acc) kinds []))));
  let problems =
    (if !miscompiled > 0 || snap.Neurovec.Stats.verify_refutes > 0 then
       [ Printf.sprintf "%d miscompiled replies, %d refutations" !miscompiled
           snap.Neurovec.Stats.verify_refutes ]
     else [])
    @
    if !mismatched > 0 then
      [ Printf.sprintf "%d repeated requests got another reply than the first"
          !mismatched ]
    else []
  in
  { attempted = n; failed = !shed + !unexpected; problems;
    digest =
      Digest.to_hex
        (Digest.string (String.concat "\x00" (Array.to_list encoded)));
    work_s = t_end -. t0; work_units = float_of_int n;
    e2e =
      [ ("setup_s", median setup_s);
        (* answers within the latency limit per second: failed and slow
           requests both miss it *)
        ("goodput_per_s", float_of_int slo_ok /. (t_end -. t0));
        ("latency_p50_ms", percentile lat_answered 0.50);
        ("speedup_geomean", geomean !speedups) ];
    layer =
      counter_layers snap
      @ by_family
      @ [ ( "serve.service_ms.hit",
            mean (List.map service (List.filter hit all)) );
          ("serve.service_ms.miss", mean (List.map service misses));
          ("serve.outstanding_max", float_of_int outstanding_max);
          ("serve.p99_ms", p99);
          ("serve.slo_share", ratio slo_ok n);
          ("serve.failed_share", ratio (n - List.length answered) n);
          ( "serve.tail_gemm_share",
            ratio
              (List.length (List.filter gemm_bound tail))
              (List.length tail) );
          ("fsio.store_bytes", float_of_int (file_size store_path));
          ( "loadgen.late_ms",
            List.fold_left max 0.0
              (List.map (fun i -> ms (submitted.(i) -. due i)) all) ) ] }

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

(* the digest of one (workload, seed, size) must never change between
   runs: the first run in a checkout records it, later runs compare *)
let ledger_check (a : args) (digest : string) : string list =
  let dir = Filename.concat work_root "digests" in
  mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-%s-%gs" a.workload a.seed
         (if a.tiny then "tiny" else "full") a.seconds)
  in
  if Sys.file_exists path then
    let old = String.trim (read_file path) in
    if old = digest then []
    else
      [ Printf.sprintf "output digest %s differs from an earlier run's %s"
          digest old ]
  else begin
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (digest ^ "\n");
    close_out oc;
    Sys.rename tmp path;
    []
  end

let json_number (v : float) : string = Printf.sprintf "%.17g" v

let () =
  let a = parse_args () in
  mkdir_p work_root;
  Printf.printf "host: %s\n%!" (Host.record ());
  let dir = run_dir () in
  let run () =
    match a.workload with
    | "sweep" -> run_sweep a
    | "train" -> run_train a dir
    | _ -> run_serve a dir
  in
  let base = run () in
  let traced =
    if a.trace then begin
      Trace.enable ();
      Some (run ())
    end
    else None
  in
  let problems =
    base.problems
    @ (match traced with
      | Some t when t.digest <> base.digest ->
          [ "the traced run's outputs differ from the untraced run's" ]
      | Some t -> t.problems
      | None -> [])
    @ ledger_check a base.digest
  in
  Printf.printf "digest: %s\n" base.digest;
  let metrics, units =
    match traced with
    | None ->
        (("peak_rss_mb", Host.peak_rss_mb ()) :: base.e2e, end_to_end)
    | Some t ->
        let root =
          match a.workload with
          | "sweep" -> "sweep.repeat"
          | "train" -> "train"
          | _ -> "serve"
        in
        let selfs, wall = Trace.split ~root in
        let accounted =
          List.fold_left (fun acc (_, s) -> acc +. s) 0.0 selfs
        in
        Printf.printf "layer split of %s wall time (%.3f s):\n" root wall;
        List.iter
          (fun (name, s) ->
            Printf.printf "  %-28s %10.1f ms  %5.1f%%\n" name (1e3 *. s)
              (100.0 *. s /. wall))
          (List.sort (fun (_, x) (_, y) -> compare y x) selfs);
        (* the pipeline phases run inside the spans above; their sums come
           from the traced pass's counters *)
        Printf.printf "  of which pipeline phases (Stats):%s\n"
          (String.concat ""
             (List.filter_map
                (fun (name, secs, calls) ->
                  if calls = 0 then None
                  else
                    Some
                      (Printf.sprintf " %s %.1f ms/%d (%.1f%%)" name
                         (1e3 *. secs) calls (100.0 *. secs /. wall)))
                (Neurovec.Stats.snapshot ()).Neurovec.Stats.phases));
        let trace_path =
          Filename.concat work_root
            (Printf.sprintf "trace-%s-seed%d.jsonl" a.workload a.seed)
        in
        Trace.write trace_path;
        Printf.printf "trace: %d spans in %s\n"
          (List.length (Trace.all ()))
          trace_path;
        let per_us name = 1e6 *. mean (Trace.durations name) in
        let spanned =
          [ ("frontend.checked_us", per_us "frontend.checked");
            ("frontend.prevec_us", per_us "frontend.prevec");
            ( "reward.entry_us",
              match a.workload with
              | "train" -> per_us "ppo.reward"
              | _ -> per_us "reward.entries" /. float_of_int n_actions );
            ( "trace.overhead_share",
              (t.work_s /. t.work_units)
              /. (base.work_s /. base.work_units)
              -. 1.0 );
            ( "trace.accounted_share",
              if wall > 0.0 then accounted /. wall else 0.0 ) ]
        in
        (spanned @ base.layer, per_layer)
  in
  let problems =
    problems
    @ List.filter_map
        (fun (name, v) ->
          if Float.is_finite v then None
          else Some (Printf.sprintf "metric %s is not finite" name))
        metrics
  in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  rm_rf dir;
  let value name =
    match List.assoc_opt name metrics with
    | Some v when Float.is_finite v -> v
    | _ -> 0.0
  in
  let attempted, failed =
    match traced with
    | Some t -> (base.attempted + t.attempted, base.failed + t.failed)
    | None -> (base.attempted, base.failed)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    (problems = []) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Host.json_string name) (json_number (value name))
              (Host.json_string unit))
          units))
