(** Compiled front-end artifacts.

    Every oracle client (PPO training, brute force, NNS, the decision tree)
    evaluates ~35 plans per program.  Parsing and semantic analysis depend
    only on the program source and its symbolic bindings, so they run once
    per content: {!checked} caches the checked AST keyed by a content hash.
    Lowering and the mid-end do not depend on the plan either, so
    {!prevec} caches the pragma-free module every {!Pipeline} evaluation
    copies and vectorizes.

    The cache is process-global and content-addressed: two [Program.t]
    values with identical source and bindings (regardless of name, kernel
    or family) share one artifact.  Traffic is recorded in {!Stats}.

    {b Domain safety.}  Evaluations fan across domains ({!Parpool}), so
    the table is sharded by content hash with one mutex per shard: lookups
    on different programs never contend, and a miss parses {e outside} the
    lock — two domains racing on the same cold program may both parse it,
    but parsing is deterministic, so whichever artifact lands last is
    bit-identical to the other and results cannot depend on the race.

    {b Bounded.}  Each shard caps its entry count ({!shard_capacity},
    [NEUROVEC_FRONTEND_CAP]) and evicts oldest-first past the cap, so a
    long-lived daemon serving an unbounded stream of distinct programs
    cannot grow the tables without limit.  Eviction is invisible except in
    cost: artifacts are pure functions of content, so an evicted entry is
    recomputed bit-identically on its next lookup.  Evictions are counted
    in {!Stats}. *)

(** Raised for any malformed program: parse errors, semantic errors, and
    (via {!Pipeline}) lowering failures.  [Pipeline.Compile_error] is a
    re-export of this exception, so existing handlers keep working. *)
exception Compile_error of string

type artifact = {
  a_hash : string;  (** content hash of (source, bindings) *)
  a_ast : Minic.Ast.program;  (** parsed and sema-checked, pragmas intact *)
}

(** Content hash of a program's source and bindings (name/kernel/family are
    metadata the front end never sees). *)
let hash_program (p : Dataset.Program.t) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x01"
          (p.Dataset.Program.p_source
          :: List.concat_map
               (fun (k, v) -> [ k; string_of_int v ])
               p.Dataset.Program.p_bindings)))

(** A program's shared pre-vectorization artifact: the pragma-free module
    after lower + LICM/CSE/LICM (everything an evaluation does before the
    planner), plus the per-loop analyses the planner needs.  [pv_modul] and
    [pv_preps] are {e never mutated}: every consumer takes an
    [Ir.copy_modul] and transforms the copy, so one artifact serves every
    plan of the program. *)
type prevec = {
  pv_hash : string;  (** content hash + polly flag *)
  pv_modul : Ir.modul;  (** pristine; consumers must copy before mutating *)
  pv_preps : Vectorizer.Planner.prep list;
  pv_loop_ids : (int * int) list;
      (** (innermost [for] ordinal, loop id) for every source loop that
          lowered to a counted loop; Polly's fusion and tiling keep ids *)
}

let n_shards = 16

(* ------------------------------------------------------------------ *)
(* Capacity                                                             *)
(* ------------------------------------------------------------------ *)

(* A long-lived daemon sees an unbounded stream of distinct programs, so
   the shard tables must not grow without limit.  Each shard keeps its
   keys in insertion order and evicts the oldest entries past the cap;
   eviction only costs a recompute on the next lookup (artifacts are pure
   functions of content), so bit-identity is unaffected. *)

let default_shard_capacity = 1024

let capacity_ref : int option ref = ref None

let env_capacity =
  lazy
    (match Sys.getenv_opt "NEUROVEC_FRONTEND_CAP" with
    | None | Some "" -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Some n
        | _ ->
            Printf.eprintf
              "neurovec: unparseable NEUROVEC_FRONTEND_CAP=%S, using the \
               default\n%!"
              s;
            None))

(** Per-shard entry cap for the artifact and prevec tables (total capacity
    is [16 * shard_capacity ()]); [NEUROVEC_FRONTEND_CAP] or
    {!set_shard_capacity} override the default of 1024. *)
let shard_capacity () : int =
  match !capacity_ref with
  | Some n -> n
  | None ->
      Option.value (Lazy.force env_capacity) ~default:default_shard_capacity

let set_shard_capacity (n : int) : unit = capacity_ref := Some (max 1 n)

type shard = {
  lock : Mutex.t;
  tbl : (string, artifact) Hashtbl.t;
  order : string Queue.t;  (** insertion order, for bounded eviction *)
}

let shards =
  Array.init n_shards (fun _ ->
      { lock = Mutex.create (); tbl = Hashtbl.create 32;
        order = Queue.create () })

type pv_shard = {
  pv_lock : Mutex.t;
  pv_tbl : (string, prevec) Hashtbl.t;
  pv_order : string Queue.t;
}

let pv_shards =
  Array.init n_shards (fun _ ->
      { pv_lock = Mutex.create (); pv_tbl = Hashtbl.create 32;
        pv_order = Queue.create () })

(* scalar reference modules for the translation validator: the plain,
   unoptimized lowering of the checked AST, keyed by content hash *)
type sr_shard = {
  sr_lock : Mutex.t;
  sr_tbl : (string, Ir.modul) Hashtbl.t;
  sr_order : string Queue.t;
}

let sr_shards =
  Array.init n_shards (fun _ ->
      { sr_lock = Mutex.create (); sr_tbl = Hashtbl.create 32;
        sr_order = Queue.create () })

(* shard lock held; keys are unique in [order] because only first-commit
   inserts push them *)
let evict_over_cap (tbl : (string, 'a) Hashtbl.t) (order : string Queue.t) :
    unit =
  let cap = shard_capacity () in
  while Hashtbl.length tbl > cap && not (Queue.is_empty order) do
    let oldest = Queue.pop order in
    if Hashtbl.mem tbl oldest then begin
      Hashtbl.remove tbl oldest;
      Stats.record_frontend_eviction ()
    end
  done

let shard_of (h : string) : shard =
  (* the content hash is a hex digest: its first byte is already uniform *)
  shards.(Char.code h.[0] mod n_shards)

let pv_shard_of (h : string) : pv_shard =
  pv_shards.(Char.code h.[0] mod n_shards)

(* caches downstream of the front end (e.g. the pipeline's evaluation-point
   memo) register here so [clear] empties every content-addressed table in
   the process; registration happens at module initialization, so hooks
   exist before any cache can be populated *)
let clear_hooks : (unit -> unit) list ref = ref []

let on_clear (f : unit -> unit) : unit = clear_hooks := f :: !clear_hooks

let clear () =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          Hashtbl.reset s.tbl;
          Queue.clear s.order))
    shards;
  Array.iter
    (fun s ->
      Mutex.protect s.pv_lock (fun () ->
          Hashtbl.reset s.pv_tbl;
          Queue.clear s.pv_order))
    pv_shards;
  Array.iter
    (fun s ->
      Mutex.protect s.sr_lock (fun () ->
          Hashtbl.reset s.sr_tbl;
          Queue.clear s.sr_order))
    sr_shards;
  List.iter (fun f -> f ()) !clear_hooks

let size () =
  Array.fold_left
    (fun acc s -> acc + Mutex.protect s.lock (fun () -> Hashtbl.length s.tbl))
    0 shards

(** Parse and sema-check [p], wrapping front-end failures in
    {!Compile_error} (timed under [Stats.Parse] / [Stats.Sema]). *)
let parse_checked (p : Dataset.Program.t) : Minic.Ast.program =
  let prog =
    Stats.time Stats.Parse (fun () ->
        try Minic.Parser.parse_string p.Dataset.Program.p_source
        with Minic.Parser.Error (msg, pos) ->
          raise
            (Compile_error
               (Printf.sprintf "%s: parse error at %d:%d: %s"
                  p.Dataset.Program.p_name pos.Minic.Token.line
                  pos.Minic.Token.col msg)))
  in
  Stats.time Stats.Sema (fun () ->
      try
        ignore (Minic.Sema.analyze ~bindings:p.Dataset.Program.p_bindings prog)
      with Minic.Sema.Error msg ->
        raise
          (Compile_error
             (Printf.sprintf "%s: %s" p.Dataset.Program.p_name msg)));
  prog

(** The checked AST for [p], parsed and analyzed at most once per distinct
    (source, bindings) content.  Malformed programs are not cached; every
    attempt re-raises {!Compile_error}. *)
let checked (p : Dataset.Program.t) : artifact =
  let h = hash_program p in
  let s = shard_of h in
  match Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.tbl h) with
  | Some a ->
      Stats.frontend_hit ();
      a
  | None ->
      Stats.frontend_miss ();
      (* parse outside the lock: slow, deterministic, idempotent *)
      let ast = parse_checked p in
      let a = { a_hash = h; a_ast = ast } in
      Mutex.protect s.lock (fun () ->
          match Hashtbl.find_opt s.tbl h with
          | Some winner -> winner  (* a racing domain parsed it first *)
          | None ->
              Hashtbl.replace s.tbl h a;
              Queue.push h s.order;
              evict_over_cap s.tbl s.order;
              a)

(* lower [ast] for [p] under [Stats.Lower], wrapping lowering errors in
   {!Compile_error} *)
let lower_ids (p : Dataset.Program.t) (ast : Minic.Ast.program) :
    Ir.modul * (int * int) list =
  Stats.time Stats.Lower (fun () ->
      try Ir_lower.lower_program_ids ~bindings:p.Dataset.Program.p_bindings ast
      with Ir_lower.Error msg ->
        raise
          (Compile_error
             (Printf.sprintf "%s: %s" p.Dataset.Program.p_name msg)))

(** The shared pre-vectorization artifact for [p]: pragma-free lowering +
    Polly (when [polly]) + LICM/CSE/LICM + per-loop planner analyses,
    computed at most once per distinct (source, bindings, polly) content.
    Lowering failures are not cached (each attempt re-raises
    {!Compile_error} with the asking program's name).

    Domain safety mirrors {!checked}: the mid-end runs {e outside} the
    shard lock — it is deterministic, so racing domains build bit-identical
    artifacts and first-commit-wins cannot be observed. *)
let prevec_of ?(polly = false) (p : Dataset.Program.t) (a : artifact) :
    prevec =
  let h = Printf.sprintf "%s|polly=%b" a.a_hash polly in
  let s = pv_shard_of h in
  match Mutex.protect s.pv_lock (fun () -> Hashtbl.find_opt s.pv_tbl h) with
  | Some pv ->
      Stats.prevec_hit ();
      pv
  | None ->
      Stats.prevec_miss ();
      (* strip the innermost loops' source pragmas: every evaluation
         supplies its plan explicitly *)
      let m, loop_ids =
        lower_ids p
          (Injector.inject_ast ~clear_others:true a.a_ast ~decisions:[])
      in
      if polly then
        Stats.time Stats.Polly (fun () -> ignore (Polly.Driver.optimize m));
      Stats.time Stats.Scalar_opt (fun () ->
          ignore (Vectorizer.Licm.run_modul m);
          ignore (Vectorizer.Cse.run_modul m);
          ignore (Vectorizer.Licm.run_modul m));
      let preps =
        Stats.time Stats.Vectorize (fun () ->
            Vectorizer.Planner.prepare_modul m)
      in
      let pv =
        { pv_hash = h; pv_modul = m; pv_preps = preps; pv_loop_ids = loop_ids }
      in
      Mutex.protect s.pv_lock (fun () ->
          match Hashtbl.find_opt s.pv_tbl h with
          | Some winner -> winner  (* a racing domain lowered it first *)
          | None ->
              Hashtbl.replace s.pv_tbl h pv;
              Queue.push h s.pv_order;
              evict_over_cap s.pv_tbl s.pv_order;
              pv)

(** As {!prevec_of}, checking the front end first. *)
let prevec ?polly (p : Dataset.Program.t) : prevec =
  prevec_of ?polly p (checked p)

(** The scalar reference module for [p]: the checked AST lowered as-is —
    pragmas intact, no Polly, no mid-end passes, no vectorizer — the
    ground truth the translation validator ({!Verify.Tv}) interprets
    against every transformed module of the program.  Never mutated:
    consumers only interpret it (the interpreter allocates its own
    memory), so one module serves every plan of every sweep.  Bounded and
    cleared like the other shards. *)
let scalar_ref_of (p : Dataset.Program.t) (a : artifact) : Ir.modul =
  let h = a.a_hash in
  let s = sr_shards.(Char.code h.[0] mod n_shards) in
  match Mutex.protect s.sr_lock (fun () -> Hashtbl.find_opt s.sr_tbl h) with
  | Some m -> m
  | None -> (
      (* lower outside the lock: deterministic, idempotent *)
      let m = fst (lower_ids p a.a_ast) in
      Mutex.protect s.sr_lock (fun () ->
          match Hashtbl.find_opt s.sr_tbl h with
          | Some winner -> winner
          | None ->
              Hashtbl.replace s.sr_tbl h m;
              Queue.push h s.sr_order;
              evict_over_cap s.sr_tbl s.sr_order;
              m))
