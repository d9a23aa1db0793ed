(** The host and configuration record printed with every result, so a
    number is never compared across hosts or configurations unknowingly. *)

let nproc () : int =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic ->
      let n =
        try int_of_string (String.trim (input_line ic)) with _ -> -1
      in
      ignore (Unix.close_process_in ic);
      n
  | exception Unix.Unix_error _ -> -1

(* a loop that builds and drops short lists, like the program's own hot
   paths, so minor-GC synchronisation between domains shows in the
   calibration as it does in the pooled engine *)
let calib_work (n : int) : int =
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + List.length (List.init 100 Fun.id)
  done;
  !acc

(** Speed-up of two domains over one on the same total work (ideal 2.0),
    the median of three trials after a warm-up: how much parallelism the
    host really offers to an OCaml program. *)
let two_domain_speedup () : float =
  let n = 20_000 in
  let trial () =
    let t0 = Unix.gettimeofday () in
    ignore (calib_work n);
    ignore (calib_work n);
    let serial = Unix.gettimeofday () -. t0 in
    let t1 = Unix.gettimeofday () in
    let d = Domain.spawn (fun () -> calib_work n) in
    ignore (calib_work n);
    ignore (Domain.join d);
    serial /. (Unix.gettimeofday () -. t1)
  in
  ignore (trial ());
  match List.sort compare [ trial (); trial (); trial () ] with
  | [ _; m; _ ] -> m
  | _ -> assert false

(** Peak resident set size in MB ([VmHWM]); the major heap's peak when
    [/proc] is unavailable. *)
let peak_rss_mb () : float =
  let from_proc =
    match open_in "/proc/self/status" with
    | ic ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
            ->
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun kb -> Some (float_of_int kb /. 1024.0))
          | _ -> scan ()
          | exception End_of_file -> None
        in
        let r = try scan () with Scanf.Scan_failure _ -> None in
        close_in ic;
        r
    | exception Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

let neurovec_env () : (string * string) list =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i when String.starts_with ~prefix:"NEUROVEC_" kv ->
             Some
               ( String.sub kv 0 i,
                 String.sub kv (i + 1) (String.length kv - i - 1) )
         | _ -> None)
  |> List.sort compare

(** [s] as a JSON string literal. *)
let json_string (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** The record as one JSON object. *)
let record () : string =
  let env =
    String.concat ","
      (List.map
         (fun (k, v) -> json_string k ^ ":" ^ json_string v)
         (neurovec_env ()))
  in
  Printf.sprintf
    "{\"nproc\":%d,\"recommended_domain_count\":%d,\"jobs\":%d,\"ocaml\":%s,\
     \"neurovec_env\":{%s},\"two_domain_speedup\":%.4f}"
    (nproc ())
    (Domain.recommended_domain_count ())
    (Neurovec.Parpool.jobs ())
    (json_string Sys.ocaml_version)
    env (two_domain_speedup ())
