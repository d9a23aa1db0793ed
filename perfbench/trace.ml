(** In-memory trace spans, recorded by the benchmark around its calls into
    each layer of the program.

    A span has a name, start and end (seconds since the trace origin), the
    id of the span that caused it ([-1] for a root) and a request id that
    groups the spans of one request, program or policy update ([-1] when
    there is none).  Nothing is written while the workload runs: {!write}
    dumps every span as one JSON object per line when the benchmark ends.

    Recording is off unless {!enable} was called, and then costs two clock
    reads and one allocation per span. *)

type span = {
  id : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;
  req : int;
}

let on = ref false
let origin = ref 0.0
let lock = Mutex.create ()
let next_id = ref 0
let spans : span list ref = ref []

let enable () =
  on := true;
  origin := Unix.gettimeofday ()

let fresh_id () =
  Mutex.protect lock (fun () ->
      let id = !next_id in
      incr next_id;
      id)

(** Record a finished span with absolute times [t0] and [t1]; returns its
    id, or [-1] when tracing is off. *)
let add ?(id = -1) ?(parent = -1) ?(req = -1) (name : string) ~(t0 : float)
    ~(t1 : float) : int =
  if not !on then -1
  else begin
    let id = if id >= 0 then id else fresh_id () in
    let s = { id; name; t0 = t0 -. !origin; t1 = t1 -. !origin; parent; req } in
    Mutex.protect lock (fun () -> spans := s :: !spans);
    id
  end

(** Run [f] inside a span named [name]; [f] receives the span's id so it
    can parent the spans of the calls it makes.  When tracing is off this
    is a plain call of [f (-1)]. *)
let span ?parent ?req (name : string) (f : int -> 'a) : 'a =
  if not !on then f (-1)
  else begin
    let id = fresh_id () in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        ignore (add ~id ?parent ?req name ~t0 ~t1:(Unix.gettimeofday ())))
      (fun () -> f id)
  end

let all () : span list = List.rev !spans

(** Self time per span name over [all]: each span's duration minus the
    time its direct children cover, summed by name and sorted by name.
    Children of one span never overlap here (the benchmark calls layers
    one at a time), so the union of their intervals is the sum of their
    lengths. *)
let self_times (all : span list) : (string * float) list =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.parent)
          +. (s.t1 -. s.t0)))
    all;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.id)
      in
      Hashtbl.replace by_name s.name
        (Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name) +. self))
    all;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(** Durations of every span named [name], in recording order. *)
let durations (name : string) : float list =
  List.filter_map
    (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
    (all ())

(** The layer split below the roots named [root]: self time by span name
    over every descendant of those roots, and the roots' total duration. *)
let split ~(root : string) : (string * float) list * float =
  let all = all () in
  let parent = Hashtbl.create 1024 and is_root = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace parent s.id s.parent;
      if s.name = root then Hashtbl.replace is_root s.id ())
    all;
  let rec under id =
    match Hashtbl.find_opt parent id with
    | Some p when p >= 0 -> Hashtbl.mem is_root p || under p
    | _ -> false
  in
  let wall =
    List.fold_left
      (fun acc s -> if s.name = root then acc +. (s.t1 -. s.t0) else acc)
      0.0 all
  in
  (self_times (List.filter (fun s -> under s.id) all), wall)

let write (path : string) : unit =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\
         \"req\":%d}\n"
        s.id s.name s.t0 s.t1 s.parent s.req)
    (all ());
  close_out oc
