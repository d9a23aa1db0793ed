(** The vectorization planner: decides each innermost loop's (VF, IF) —
    the requested plan first, baseline cost model otherwise — clamps the
    decision to what legality allows, and applies the transform.

    This is the "compiler" the rest of the framework drives: the RL agent
    asks for a plan per loop, and this pass honours it the way Clang/LLVM
    honour [#pragma clang loop vectorize_width(..) interleave_count(..)]. *)

type decision = {
  d_loop_id : int;
  d_requested : Transform.plan option;  (** the request, if any *)
  d_applied : Transform.plan;
  d_legal : bool;
  d_reasons : string list;
}

type report = decision list

(** The plan a [#pragma clang loop] requests: [vectorize(disable)] asks
    for the scalar loop, a width-only or interleave-only pragma leaves the
    other factor at 1, and a pragma naming neither requests nothing. *)
let request_of_pragma (pragma : Minic.Ast.loop_pragma option) :
    Transform.plan option =
  match pragma with
  | Some { Minic.Ast.vectorize_enable = Some false; _ } ->
      Some Transform.no_vectorize
  | Some { Minic.Ast.vectorize_width = None; interleave_count = None; _ }
  | None ->
      None
  | Some { Minic.Ast.vectorize_width = vw; interleave_count = ic; _ } ->
      Some
        { Transform.vf = Option.value vw ~default:1;
          if_ = Option.value ic ~default:1 }

(** The plan a loop actually receives: the request (or, without one, the
    baseline cost model's choice) clamped to what legality admits. *)
let applied (leg : Legality.t) (request : Transform.plan option) :
    Transform.plan =
  let p = match request with Some p -> p | None -> Costmodel.choose leg in
  let vf, if_ = Legality.clamp leg ~vf:p.Transform.vf ~if_:p.Transform.if_ in
  { Transform.vf; if_ }

(* ------------------------------------------------------------------ *)
(* Analyze once, apply per plan                                         *)
(* ------------------------------------------------------------------ *)

(** One innermost loop's worth of per-module analysis, reusable across
    every [Ir.copy_modul] copy of the module it was computed on: the loop
    info (accesses, reductions, dependences) and its legality verdict.
    [Transform.vectorize_in_func] locates the loop in the target copy by
    id and substitutes the copy's own node, so a [prep] computed on the
    pristine module drives the transform on any structurally-identical
    copy. *)
type prep = {
  pr_fn_name : string;
  pr_info : Analysis.Loopinfo.t;
  pr_leg : Legality.t;
}

let loop_id (pr : prep) : int = pr.pr_info.Analysis.Loopinfo.li_loop.Ir.l_id

(** Analyze every innermost loop of a module once (function order, then
    loop order within the function). *)
let prepare_modul (m : Ir.modul) : prep list =
  List.concat_map
    (fun fn ->
      List.map
        (fun info ->
          { pr_fn_name = fn.Ir.fn_name; pr_info = info;
            pr_leg = Legality.of_info info })
        (Analysis.Loopinfo.innermost_infos fn))
    m.Ir.m_funcs

(** The same request for every loop of [preps]. *)
let uniform (preps : prep list) (plan : Transform.plan) :
    (int * Transform.plan) list =
  List.map (fun pr -> (loop_id pr, plan)) preps

(** Decide and transform every innermost loop of [m] (the module [preps]
    was computed on, or a structural copy of it).  [requests] maps loop
    ids to requested plans; a loop without one gets the baseline cost
    model's choice, and every choice is clamped by {!applied}. *)
let run_prepared ~(requests : (int * Transform.plan) list)
    (m : Ir.modul) (preps : prep list) : report =
  List.map
    (fun pr ->
      let fn =
        match
          List.find_opt (fun f -> f.Ir.fn_name = pr.pr_fn_name) m.Ir.m_funcs
        with
        | Some fn -> fn
        | None -> invalid_arg "run_prepared: module does not match preps"
      in
      let id = loop_id pr in
      let requested = List.assoc_opt id requests in
      let plan = applied pr.pr_leg requested in
      ignore (Transform.vectorize_in_func fn pr.pr_info plan);
      {
        d_loop_id = id;
        d_requested = requested;
        d_applied = plan;
        d_legal = pr.pr_leg.Legality.can_vectorize;
        d_reasons = pr.pr_info.Analysis.Loopinfo.li_reasons;
      })
    preps

(** Run the planner over a whole module, honouring each loop's own
    pragma. *)
let run_modul (m : Ir.modul) : report =
  let preps = prepare_modul m in
  let requests =
    List.filter_map
      (fun pr ->
        Option.map
          (fun r -> (loop_id pr, r))
          (request_of_pragma pr.pr_info.Analysis.Loopinfo.li_loop.Ir.l_pragma))
      preps
  in
  run_prepared ~requests m preps
