(** The compile-and-measure pipeline ("clang/LLVM + the testbed" of
    Figure 3): one engine prices every (program, plan) point.  The front
    end and mid-end (parse, check, lower, optionally Polly, LICM/CSE) run
    once per program content into the shared {!Frontend.prevec} artifact;
    each evaluation copies that module, runs the loop vectorizer under the
    requested {!plan}, cleans up with LICM, then prices compile time and
    simulates execution time on the target machine.

    {!compile} returns the transformed module and the planner's report;
    {!measure} returns only the two times, memoized per applied plan.
    Back-end phases are timed under {!Stats}. *)

type options = {
  target : Machine.Target.t;
  polly : bool;
  compile_model : Machine.Compile.t;
  faults : Faults.spec;
      (** fault injection and timing noise; [Faults.none] = off *)
  verify : bool;
      (** translation validation: after measuring a point, interpret the
          transformed module against the scalar reference over a
          content-derived input set ({!Verify.Tv}); a refutation raises
          {!Verify.Tv.Miscompile}, which the reward oracle converts to the
          [Miscompiled] quarantine kind *)
}

let default_options =
  { target = Machine.Target.skylake_avx2; polly = false;
    compile_model = Machine.Compile.default; faults = Faults.none;
    verify = false }

(** [true] when [NEUROVEC_VERIFY] asks for translation validation. *)
let verify_of_env () : bool =
  match Sys.getenv_opt "NEUROVEC_VERIFY" with
  | Some ("1" | "true" | "on" | "yes") -> true
  | _ -> false

(** Stable cache key for an options value (used by the reward cache).
    The fault descriptor is empty when injection is off and the verify
    suffix only appears when validation is on, so existing runs keep
    their original keys. *)
let options_key (o : options) : string =
  Printf.sprintf "%s|polly=%b|cm=%g+%g%s%s" o.target.Machine.Target.name
    o.polly o.compile_model.Machine.Compile.base_seconds
    o.compile_model.Machine.Compile.per_instr_seconds
    (Faults.descriptor o.faults)
    (if o.verify then "|verify" else "")

type result = {
  modul : Ir.modul;
  decisions : Vectorizer.Planner.report;
  compile_seconds : float;
  exec_seconds : float;
  exec_cycles : float;
}

exception Compile_error = Frontend.Compile_error

let find_kernel (m : Ir.modul) (name : string) : Ir.func =
  match List.find_opt (fun f -> f.Ir.fn_name = name) m.Ir.m_funcs with
  | Some f -> f
  | None -> raise (Compile_error (Printf.sprintf "kernel %s not found" name))

(* The seeded fault preamble shared by every evaluation entry point, run
   before any real work.  Order matters and is part of the determinism
   contract: persistent discrete faults first (a point that cannot compile
   can never be rescued by retrying), then the transient class (keyed by
   the attempt index, so the supervisor's retry loop can converge), then
   stalls (the cooperative wait only the watchdog ends — checked last so a
   point that deterministically fails does so promptly instead of hanging
   first). *)
let inject_faults ~(faults : Faults.spec) ~(name : string) ~(fkey : string)
    ~(attempt : int) : unit =
  (match Faults.pick faults ~key:fkey with
  | Some Faults.Compile_fault ->
      raise (Compile_error (name ^ ": injected fault: compile failure"))
  | Some Faults.Trap_fault ->
      raise (Ir_interp.Trap (name ^ ": injected fault: runtime trap"))
  | Some Faults.Fuel_fault ->
      raise
        (Faults.Fuel_exhausted
           (name ^ ": injected fault: interpreter fuel exhausted"))
  | None -> ());
  if Faults.transient_hit faults ~key:fkey ~attempt then
    raise
      (Faults.Transient
         (Printf.sprintf "%s: injected fault: transient testbed failure \
                          (attempt %d)" name attempt));
  if Faults.stall_hit faults ~key:fkey then Supervisor.stall_point ~name

(* ------------------------------------------------------------------ *)
(* Translation validation                                               *)
(* ------------------------------------------------------------------ *)

(* Verdicts are cached content-addressed next to the reward cache: the key
   is (content hash, polly, kernel, applied plans, options), so the many
   requested actions that clamp to one applied plan share one verdict, and
   a warm sweep pays nothing for [--verify].  Cached values are the
   rendered counterexample ([None] = equivalent); verdicts are pure
   functions of the key (the input set derives from it — no wall clock,
   no shared RNG), so first-commit-wins races are invisible and a
   [--jobs N] sweep caches exactly the bits a [--jobs 1] sweep caches. *)

let vd_n_shards = 16

type vd_shard = {
  vd_lock : Mutex.t;
  vd_tbl : (string, string option) Hashtbl.t;
      (** verdict key -> [None] (equivalent) or rendered counterexample *)
}

let vd_shards =
  Array.init vd_n_shards (fun _ ->
      { vd_lock = Mutex.create (); vd_tbl = Hashtbl.create 64 })

let vd_shard_of (key : string) : vd_shard =
  vd_shards.(Char.code key.[0] mod vd_n_shards)

let () =
  Frontend.on_clear (fun () ->
      Array.iter
        (fun s -> Mutex.protect s.vd_lock (fun () -> Hashtbl.reset s.vd_tbl))
        vd_shards;
      Verify.Tv.clear_cache ())

(** The per-loop applied plans of a point, as the stable signature string
    shared by the verdict cache and the point memo. *)
let applied_sig (plans : Vectorizer.Transform.plan list) : string =
  String.concat ";"
    (List.map
       (fun pl ->
         Printf.sprintf "%d,%d" pl.Vectorizer.Transform.vf
           pl.Vectorizer.Transform.if_)
       plans)

(* Validate one measured point when [options.verify] is on: raise
   {!Verify.Tv.Miscompile} iff the plan's verdict is a refutation.  Runs
   after measurement, so timings and memos are untouched whether or not
   validation passes.  [modul] is lazy so a verdict-cache hit never
   materializes the transformed module (the memoized eval path skips
   copy + transform entirely on warm points).  The [miscompile] fault
   knob keys its sabotage by the same content key, so a broken-transform
   drill produces the same refutation for every action that clamps to
   the sabotaged plan, at any [--jobs]. *)
let verify_point ~(options : options) (p : Dataset.Program.t)
    (a : Frontend.artifact) ~(psig : string) ~(modul : Ir.modul Lazy.t) :
    unit =
  if options.verify then begin
    let kernel = p.Dataset.Program.p_kernel in
    let ppkey =
      Printf.sprintf "%s|polly=%b|%s|%s" a.Frontend.a_hash options.polly
        kernel psig
    in
    let vkey = ppkey ^ "|" ^ options_key options in
    let s = vd_shard_of vkey in
    let outcome =
      match
        Mutex.protect s.vd_lock (fun () -> Hashtbl.find_opt s.vd_tbl vkey)
      with
      | Some o ->
          Stats.verify_hit ();
          o
      | None ->
          Stats.verify_miss ();
          (* interpret outside the lock: slow, deterministic, idempotent *)
          let scalar = Frontend.scalar_ref_of p a in
          let verdict =
            Verify.Tv.verify
              ~sabotage:(Faults.miscompile_hit options.faults ~key:ppkey)
              ~key:ppkey ~scalar
              ~scalar_key:(a.Frontend.a_hash ^ "|" ^ kernel)
              ~kernel (Lazy.force modul)
          in
          let o =
            match verdict with
            | Verify.Tv.Equivalent -> None
            | Verify.Tv.Refuted cx ->
                Stats.record_verify_cx ();
                Some (Verify.Tv.render cx)
          in
          Mutex.protect s.vd_lock (fun () ->
              match Hashtbl.find_opt s.vd_tbl vkey with
              | Some winner -> winner
              | None ->
                  Hashtbl.replace s.vd_tbl vkey o;
                  o)
    in
    match outcome with
    | None -> ()
    | Some cx ->
        Stats.record_verify_refute ();
        raise (Verify.Tv.Miscompile cx)
  end

(** What to ask the vectorizer for:
    - [Baseline]: the baseline cost model on every loop (source pragmas
      removed);
    - [Uniform (vf, if_)]: the same request on every innermost loop;
    - [Per_loop ds]: [ds] names innermost [for] loops by their source
      ordinal ({!Extractor.extract}); loops it does not name get the
      baseline, except that a loop the source does not count as innermost
      keeps its own pragma.  A [for] that lowers to a non-counted loop has
      no loop id, so its request is dropped. *)
type plan =
  | Baseline
  | Uniform of int * int
  | Per_loop of (int * Minic.Ast.loop_pragma) list

(* The fault key identifies the (program, plan) point for deterministic
   fault injection and timing noise, so the same point always faults the
   same way whichever caller evaluates it. *)
let fault_key (a : Frontend.artifact) (plan : plan) : string =
  match plan with
  | Baseline -> a.Frontend.a_hash ^ "|baseline"
  | Uniform (vf, if_) ->
      Printf.sprintf "%s|vf=%d,if=%d" a.Frontend.a_hash vf if_
  | Per_loop ds ->
      a.Frontend.a_hash ^ "|d:"
      ^ String.concat ";"
          (List.map
             (fun (ord, pr) ->
               Printf.sprintf "%d=%d,%d" ord
                 (Option.value pr.Minic.Ast.vectorize_width ~default:0)
                 (Option.value pr.Minic.Ast.interleave_count ~default:0))
             ds)

(* The planner requests of a plan, keyed by loop id. *)
let requests (pv : Frontend.prevec) (plan : plan) :
    (int * Vectorizer.Transform.plan) list =
  let preps = pv.Frontend.pv_preps in
  match plan with
  | Baseline -> []
  | Uniform (vf, if_) ->
      Vectorizer.Planner.uniform preps { Vectorizer.Transform.vf; if_ }
  | Per_loop ds ->
      let named =
        List.filter_map
          (fun (ord, pr) ->
            Option.map
              (fun id -> (id, pr))
              (List.assoc_opt ord pv.Frontend.pv_loop_ids))
          ds
      in
      List.filter_map
        (fun pr ->
          let l = pr.Vectorizer.Planner.pr_info.Analysis.Loopinfo.li_loop in
          let pragma =
            match List.assoc_opt l.Ir.l_id named with
            | Some p -> Some p
            | None -> l.Ir.l_pragma
          in
          Option.map
            (fun r -> (l.Ir.l_id, r))
            (Vectorizer.Planner.request_of_pragma pragma))
        preps

(* Everything an evaluation needs before it transforms: faults are
   injected first (a point that cannot compile never reaches the
   mid-end), then the shared artifact is looked up. *)
let prepare ~(options : options) ~(attempt : int) (p : Dataset.Program.t)
    (plan : plan) =
  let a = Frontend.checked p in
  let fkey = fault_key a plan in
  inject_faults ~faults:options.faults ~name:p.Dataset.Program.p_name ~fkey
    ~attempt;
  let pv = Frontend.prevec_of ~polly:options.polly p a in
  (a, pv, fkey, requests pv plan)

(* copy the pristine module, vectorize the copy, clean up *)
let transform (pv : Frontend.prevec) requests :
    Ir.modul * Vectorizer.Planner.report =
  let m = Ir.copy_modul pv.Frontend.pv_modul in
  let report =
    Stats.time Stats.Vectorize (fun () ->
        Vectorizer.Planner.run_prepared ~requests m pv.Frontend.pv_preps)
  in
  Stats.time Stats.Scalar_opt (fun () -> ignore (Vectorizer.Licm.run_modul m));
  (m, report)

(* raw (compile seconds, exec cycles) of a transformed module, before
   fault multipliers *)
let price ~(options : options) (p : Dataset.Program.t) (m : Ir.modul) :
    float * float =
  let compile_raw = Machine.Compile.seconds ~model:options.compile_model m in
  let kernel_fn = find_kernel m p.Dataset.Program.p_kernel in
  ( compile_raw,
    Stats.time Stats.Timing (fun () ->
        Machine.Timing.cycles options.target m kernel_fn) )

let seconds_of_cycles (options : options) (cycles : float) : float =
  cycles /. (options.target.Machine.Target.ghz *. 1e9)

(* The tail shared by [compile] and [measure]: the point's fault
   multipliers applied to its raw (compile seconds, exec cycles), then the
   evaluation count and translation validation.  [sample] numbers the
   median-of-k timing resamples of one point: noise is a pure function of
   (fault seed, fault key, sample), so results never depend on what other
   evaluations — or other domains — measured in between. *)
let finish ~(options : options) ~sample p a ~fkey ~psig ~modul
    (compile_raw, cycles_raw) : float * float =
  let compile_seconds =
    compile_raw *. Faults.timeout_multiplier options.faults ~key:fkey
  in
  let exec_cycles =
    cycles_raw *. Faults.noise_factor options.faults ~key:fkey ~sample
  in
  Stats.pipeline_run ();
  verify_point ~options p a ~psig ~modul;
  (compile_seconds, exec_cycles)

(** Compile and simulate [p] under [plan].  [attempt] numbers the
    supervisor's retries of the whole point: transient faults are a pure
    function of (fault seed, fault key, attempt), so a retry can succeed
    deterministically. *)
let compile ?(options = default_options) ?(sample = 0) ?(attempt = 0)
    ~(plan : plan) (p : Dataset.Program.t) : result =
  let a, pv, fkey, requests = prepare ~options ~attempt p plan in
  let m, decisions = transform pv requests in
  let psig =
    applied_sig (List.map (fun d -> d.Vectorizer.Planner.d_applied) decisions)
  in
  let compile_seconds, exec_cycles =
    finish ~options ~sample p a ~fkey ~psig ~modul:(lazy m)
      (price ~options p m)
  in
  { modul = m; decisions; compile_seconds;
    exec_seconds = seconds_of_cycles options exec_cycles; exec_cycles }

(* ------------------------------------------------------------------ *)
(* Memoized point evaluation                                            *)
(* ------------------------------------------------------------------ *)

(* Evaluation points collapse: legality clamps each requested (vf, if) to
   what the loop admits, so many of the 35 actions in a sweep share one
   applied plan per loop — and therefore one transformed module, one
   compile-time estimate, one cycle count.  The memo keys a point by
   (prevec content, options, kernel, applied plan per loop): computing the
   key costs one clamp per loop, and a hit skips copy + transform + LICM +
   compile modelling + timing entirely.  Cached values are raw
   pre-fault-multiplier floats; noise and timeout factors are pure
   functions of (fault key, sample) applied outside the memo, so cached
   points are bit-identical to freshly measured ones at every sample. *)

let pt_n_shards = 16

type pt_shard = {
  pt_lock : Mutex.t;
  pt_tbl : (string, float * float) Hashtbl.t;
      (** point key -> (raw compile seconds, raw exec cycles) *)
}

let pt_shards =
  Array.init pt_n_shards (fun _ ->
      { pt_lock = Mutex.create (); pt_tbl = Hashtbl.create 64 })

let pt_shard_of (key : string) : pt_shard =
  (* point keys start with the content hash hex digest *)
  pt_shards.(Char.code key.[0] mod pt_n_shards)

let () =
  Frontend.on_clear (fun () ->
      Array.iter
        (fun s -> Mutex.protect s.pt_lock (fun () -> Hashtbl.reset s.pt_tbl))
        pt_shards)

(** (exec_seconds, compile_seconds) of [p] under [plan] — the oracle's hot
    path.  The same point as {!compile} (same fault key, failures and
    bits) without materializing the transformed module, so the point memo
    serves repeats of an applied plan from the table. *)
let measure ?(options = default_options) ?(sample = 0) ?(attempt = 0)
    ~(plan : plan) (p : Dataset.Program.t) : float * float =
  let a, pv, fkey, requests = prepare ~options ~attempt p plan in
  let psig =
    applied_sig
      (List.map
         (fun pr ->
           Vectorizer.Planner.applied pr.Vectorizer.Planner.pr_leg
             (List.assoc_opt (Vectorizer.Planner.loop_id pr) requests))
         pv.Frontend.pv_preps)
  in
  let key =
    Printf.sprintf "%s|%s|%s|%s" pv.Frontend.pv_hash (options_key options)
      p.Dataset.Program.p_kernel psig
  in
  (* built at most once: on a memo miss, and reused by validation *)
  let transformed = lazy (fst (transform pv requests)) in
  let s = pt_shard_of key in
  let raw =
    match
      Mutex.protect s.pt_lock (fun () -> Hashtbl.find_opt s.pt_tbl key)
    with
    | Some v ->
        Stats.point_hit ();
        v
    | None ->
        Stats.point_miss ();
        (* measure outside the lock: slow, deterministic, idempotent *)
        let v = price ~options p (Lazy.force transformed) in
        Mutex.protect s.pt_lock (fun () ->
            match Hashtbl.find_opt s.pt_tbl key with
            | Some winner -> winner  (* a racing domain measured it first *)
            | None ->
                Hashtbl.replace s.pt_tbl key v;
                v)
  in
  (* a memo hit plus a verdict-cache hit never materializes the
     transformed module, so warm verified sweeps stay memo-fast *)
  let compile_seconds, exec_cycles =
    finish ~options ~sample p a ~fkey ~psig ~modul:transformed raw
  in
  (seconds_of_cycles options exec_cycles, compile_seconds)
