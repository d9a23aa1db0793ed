(* The serving tier: protocol codec (round-trip + hostile input), the
   on-disk store's corruption matrix, and the daemon's robustness layers
   (shedding, breaker, drain, warm restart, batching, signal chaining).

   Everything leans on the determinism contract: replies — answers and
   typed errors alike — are pure functions of (program content, options,
   model), so a warm restart must reproduce the cold run byte-for-byte
   and every corruption must be detected, quarantined and recomputed,
   never trusted. *)

let with_supervision ?deadline ?retries ?(backoff = 0.0) (f : unit -> 'a) :
    'a =
  let d0 = Neurovec.Supervisor.deadline () in
  let r0 = Neurovec.Supervisor.max_retries () in
  Option.iter Neurovec.Supervisor.set_deadline deadline;
  Option.iter Neurovec.Supervisor.set_max_retries retries;
  Neurovec.Supervisor.set_retry_backoff backoff;
  Fun.protect
    ~finally:(fun () ->
      Neurovec.Supervisor.set_deadline d0;
      Neurovec.Supervisor.set_max_retries r0;
      Neurovec.Supervisor.set_retry_backoff 0.002;
      Neurovec.Supervisor.reset_shutdown ())
    f

let tmp_path (stem : string) : string =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "neurovec_test_%s_%d" stem (Unix.getpid ()))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Protocol: round-trip and hostile input                               *)
(* ------------------------------------------------------------------ *)

let gen_str = QCheck.Gen.(string_size (int_bound 40))

let gen_request : Serve.Protocol.request QCheck.arbitrary =
  QCheck.make
    ~print:(fun r ->
      match r with
      | Serve.Protocol.Vectorize { v_client; v_name; v_kernel; v_source } ->
          Printf.sprintf "Vectorize(%S,%S,%S,%d bytes)" v_client v_name
            v_kernel (String.length v_source)
      | Serve.Protocol.Ping -> "Ping"
      | Serve.Protocol.Stats_req -> "Stats_req")
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map2
              (fun (c, n) (k, s) ->
                Serve.Protocol.Vectorize
                  { v_client = c; v_name = n; v_kernel = k; v_source = s })
              (pair gen_str gen_str) (pair gen_str gen_str) );
          (1, return Serve.Protocol.Ping);
          (1, return Serve.Protocol.Stats_req);
        ])

let gen_reply : Serve.Protocol.reply QCheck.arbitrary =
  let kinds =
    [ `Malformed; `Too_big; `Compile_error; `Overloaded; `Breaker_open;
      `Hung; `Transient; `Miscompiled; `Shutting_down; `Internal ]
  in
  QCheck.make
    ~print:(fun r ->
      match r with
      | Serve.Protocol.Answer s -> Printf.sprintf "Answer(%d bytes)" (String.length s)
      | Serve.Protocol.Error (k, m) ->
          Printf.sprintf "Error(%s,%S)" (Serve.Protocol.error_name k) m
      | Serve.Protocol.Pong -> "Pong"
      | Serve.Protocol.Stats_reply s ->
          Printf.sprintf "Stats_reply(%d bytes)" (String.length s))
    QCheck.Gen.(
      frequency
        [
          (3, map (fun s -> Serve.Protocol.Answer s) gen_str);
          ( 3,
            map2
              (fun i m -> Serve.Protocol.Error (List.nth kinds i, m))
              (int_range 0 (List.length kinds - 1))
              gen_str );
          (1, return Serve.Protocol.Pong);
          (1, map (fun s -> Serve.Protocol.Stats_reply s) gen_str);
        ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"protocol: request encode/decode round-trip"
    ~count:200 gen_request (fun r ->
      Serve.Protocol.decode_request (Serve.Protocol.encode_request r) = r)

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"protocol: reply encode/decode round-trip"
    ~count:200 gen_reply (fun r ->
      Serve.Protocol.decode_reply (Serve.Protocol.encode_reply r) = r)

(* hostile payloads must either decode or raise Malformed — any other
   exception (or a silent success on a strict truncation) is a bug *)
let malformed_only (decode : string -> 'a) (payload : string)
    (original : string) : bool =
  match decode payload with
  | _ -> payload = original  (* a strict prefix must not decode *)
  | exception Serve.Protocol.Malformed _ -> true

let no_crash (decode : string -> 'a) (payload : string) : bool =
  match decode payload with
  | _ -> true
  | exception Serve.Protocol.Malformed _ -> true
(* anything else propagates and fails the property *)

let prop_request_garbage =
  QCheck.Test.make
    ~name:"protocol: truncated/mutated requests never crash the decoder"
    ~count:200
    (QCheck.pair gen_request (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (r, (cut, flip)) ->
      let enc = Serve.Protocol.encode_request r in
      let truncated = String.sub enc 0 (min cut (String.length enc)) in
      let mutated =
        if String.length enc = 0 then enc
        else begin
          let b = Bytes.of_string enc in
          let i = flip mod Bytes.length b in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
          Bytes.to_string b
        end
      in
      malformed_only Serve.Protocol.decode_request truncated enc
      && no_crash Serve.Protocol.decode_request mutated
      && malformed_only Serve.Protocol.decode_request (enc ^ "x") enc)

let test_protocol_garbage_fixed () =
  let m what payload =
    match Serve.Protocol.decode_request payload with
    | _ -> Alcotest.failf "%s: decoded garbage" what
    | exception Serve.Protocol.Malformed _ -> ()
  in
  m "empty" "";
  m "unknown tag" "Zhello";
  m "absurd length" "V\xff\xff\xff\xffrest";
  match Serve.Protocol.decode_reply "E?\x00\x00\x00\x00" with
  | _ -> Alcotest.fail "unknown error kind decoded"
  | exception Serve.Protocol.Malformed _ -> ()

(* frames: oversized declared length is drained, the stream stays framed *)
let test_frame_oversize_drained () =
  let path = tmp_path "frames" in
  let oc = open_out_bin path in
  let big = Serve.Protocol.max_frame + 5 in
  output_char oc (Char.chr ((big lsr 24) land 0xff));
  output_char oc (Char.chr ((big lsr 16) land 0xff));
  output_char oc (Char.chr ((big lsr 8) land 0xff));
  output_char oc (Char.chr (big land 0xff));
  output_string oc (String.make big 'x');
  Serve.Protocol.write_frame oc "after";
  close_out oc;
  let ic = open_in_bin path in
  (match Serve.Protocol.read_frame ic with
  | Serve.Protocol.Too_big n -> Alcotest.(check int) "declared" big n
  | _ -> Alcotest.fail "oversized frame not reported");
  (match Serve.Protocol.read_frame ic with
  | Serve.Protocol.Frame p -> Alcotest.(check string) "next frame" "after" p
  | _ -> Alcotest.fail "stream lost framing after the oversized frame");
  (match Serve.Protocol.read_frame ic with
  | Serve.Protocol.Eof -> ()
  | _ -> Alcotest.fail "expected EOF");
  close_in ic;
  Sys.remove path

let test_frame_truncated_is_eof () =
  let path = tmp_path "torn_frame" in
  write_file path "\x00\x00\x00\x10only-8-bytes";
  let ic = open_in_bin path in
  (match Serve.Protocol.read_frame ic with
  | Serve.Protocol.Eof -> ()
  | _ -> Alcotest.fail "torn frame should read as EOF");
  close_in ic;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Store: the corruption matrix                                         *)
(* ------------------------------------------------------------------ *)

let fresh_store (stem : string) : string * (string * string) list =
  let path = tmp_path stem in
  (try Sys.remove path with Sys_error _ -> ());
  (try Sys.remove (path ^ ".quarantined") with Sys_error _ -> ());
  let entries =
    List.init 5 (fun i ->
        (Printf.sprintf "key-%d" i, Printf.sprintf "value-%d-%s" i
           (String.make (10 * (i + 1)) 'v')))
  in
  let s = Serve.Store.open_store path in
  List.iter (fun (k, v) -> Serve.Store.put s k v) entries;
  Serve.Store.close s;
  (path, entries)

let check_survivors ?(expect_lost = []) (path : string)
    (entries : (string * string) list) : unit =
  let s = Serve.Store.open_store path in
  List.iter
    (fun (k, v) ->
      if List.mem k expect_lost then (
        match Serve.Store.get s k with
        | None -> ()
        | Some _ -> Alcotest.failf "corrupt entry %s trusted" k)
      else
        match Serve.Store.get s k with
        | Some v' -> Alcotest.(check string) k v v'
        | None -> Alcotest.failf "intact entry %s lost" k)
    entries;
  (* recomputed values are accepted again after the quarantine *)
  List.iter
    (fun k ->
      Serve.Store.put s k "recomputed";
      match Serve.Store.get s k with
      | Some "recomputed" -> ()
      | _ -> Alcotest.failf "entry %s not recomputable" k)
    expect_lost;
  Serve.Store.close s

let test_store_clean_roundtrip () =
  let path, entries = fresh_store "store_clean" in
  check_survivors path entries;
  let s = Serve.Store.open_store path in
  let _, rejected, torn = Serve.Store.recovery s in
  Alcotest.(check int) "no rejects" 0 rejected;
  Alcotest.(check bool) "no tear" false torn;
  Serve.Store.close s;
  Sys.remove path

let test_store_truncated_entry () =
  let path, entries = fresh_store "store_trunc" in
  let body = read_file path in
  (* cut into the last record's value: a crash mid-append *)
  write_file path (String.sub body 0 (String.length body - 9));
  let s = Serve.Store.open_store path in
  let _, _, torn = Serve.Store.recovery s in
  Alcotest.(check bool) "tear detected" true torn;
  Serve.Store.close s;
  Alcotest.(check bool) "quarantined" true
    (Sys.file_exists (path ^ ".quarantined"));
  check_survivors ~expect_lost:[ "key-4" ] path entries;
  Sys.remove path;
  Sys.remove (path ^ ".quarantined")

let test_store_flipped_payload_byte () =
  let path, entries = fresh_store "store_flip" in
  let body = Bytes.of_string (read_file path) in
  (* flip one byte inside the *first* record's value region so later
     records must survive on framing alone *)
  let off = String.length Serve.Store.header + 1 + 4 + 4 + 5 + 3 in
  Bytes.set body off (Char.chr (Char.code (Bytes.get body off) lxor 0x01));
  write_file path (Bytes.to_string body);
  let before = (Neurovec.Stats.snapshot ()).Neurovec.Stats.store_crc_rejects in
  let s = Serve.Store.open_store path in
  let _, rejected, torn = Serve.Store.recovery s in
  Alcotest.(check int) "one CRC reject" 1 rejected;
  Alcotest.(check bool) "no tear" false torn;
  Serve.Store.close s;
  let after = (Neurovec.Stats.snapshot ()).Neurovec.Stats.store_crc_rejects in
  Alcotest.(check int) "reject counted in Stats" (before + 1) after;
  Alcotest.(check bool) "quarantined" true
    (Sys.file_exists (path ^ ".quarantined"));
  check_survivors ~expect_lost:[ "key-0" ] path entries;
  Sys.remove path;
  Sys.remove (path ^ ".quarantined")

let test_store_bad_crc_footer () =
  let path, entries = fresh_store "store_crc" in
  let body = Bytes.of_string (read_file path) in
  (* last 4 bytes of the file are the last record's CRC *)
  let off = Bytes.length body - 2 in
  Bytes.set body off (Char.chr (Char.code (Bytes.get body off) lxor 0x80));
  write_file path (Bytes.to_string body);
  let s = Serve.Store.open_store path in
  let _, rejected, _ = Serve.Store.recovery s in
  Alcotest.(check int) "one CRC reject" 1 rejected;
  Serve.Store.close s;
  check_survivors ~expect_lost:[ "key-4" ] path entries;
  Sys.remove path;
  Sys.remove (path ^ ".quarantined")

let test_store_torn_concurrent_write () =
  let path, entries = fresh_store "store_torn" in
  (* a record whose tag landed but whose lengths are garbage: the write
     that was racing the kill *)
  let body = read_file path in
  write_file path (body ^ "R\xff\xfe\xfd\xfc\x00");
  let s = Serve.Store.open_store path in
  let _, _, torn = Serve.Store.recovery s in
  Alcotest.(check bool) "tear detected" true torn;
  Serve.Store.close s;
  check_survivors path entries;
  (* everything intact: only the torn tail was dropped *)
  Sys.remove path;
  Sys.remove (path ^ ".quarantined")

(* ------------------------------------------------------------------ *)
(* Server                                                               *)
(* ------------------------------------------------------------------ *)

let corpus = lazy (Dataset.Loopgen.generate ~seed:17 6)

let agent = lazy (Rl.Agent.create ~space:Rl.Spaces.Discrete (Nn.Rng.create 9))

let call_p server (p : Dataset.Program.t) : Serve.Protocol.reply =
  Serve.Server.call server ~client:"test" ~name:p.Dataset.Program.p_name
    ~kernel:p.Dataset.Program.p_kernel ~source:p.Dataset.Program.p_source

let answer_of (reply : Serve.Protocol.reply) : string =
  match reply with
  | Serve.Protocol.Answer text -> text
  | Serve.Protocol.Error (k, m) ->
      Alcotest.failf "expected an answer, got %s: %s"
        (Serve.Protocol.error_name k) m
  | _ -> Alcotest.fail "expected an answer"

(* the reply a fault-free serial [predict] would give, built from the
   same public pieces the CLI uses *)
let expected_answer (p : Dataset.Program.t) : string =
  let agent = Lazy.force agent in
  let decisions = Neurovec.Framework.predict_decisions agent p in
  let b = Buffer.create 256 in
  List.iter
    (fun (ord, pr) ->
      Buffer.add_string b
        (Printf.sprintf "loop %d: VF=%d IF=%d\n" ord
           (Option.value pr.Minic.Ast.vectorize_width ~default:1)
           (Option.value pr.Minic.Ast.interleave_count ~default:1)))
    decisions;
  let base = Neurovec.Pipeline.compile ~plan:Neurovec.Pipeline.Baseline p in
  let rl =
    Neurovec.Pipeline.compile ~plan:(Neurovec.Pipeline.Per_loop decisions) p
  in
  Buffer.add_string b
    (Printf.sprintf "baseline: %.3e s   RL: %.3e s   speedup %.2fx\n"
       base.Neurovec.Pipeline.exec_seconds rl.Neurovec.Pipeline.exec_seconds
       (base.Neurovec.Pipeline.exec_seconds
       /. rl.Neurovec.Pipeline.exec_seconds));
  Buffer.add_string b "rewritten source:\n";
  Buffer.add_string b
    (Neurovec.Injector.inject_source ~clear_others:true
       p.Dataset.Program.p_source ~decisions);
  Buffer.contents b

let test_answers_match_serial_predict () =
  with_supervision @@ fun () ->
  let server = Serve.Server.create (Lazy.force agent) in
  Array.iter
    (fun p ->
      Alcotest.(check string)
        p.Dataset.Program.p_name (expected_answer p)
        (answer_of (call_p server p)))
    (Lazy.force corpus);
  Serve.Server.stop server

let test_typed_error_replies () =
  with_supervision @@ fun () ->
  let server = Serve.Server.create (Lazy.force agent) in
  (match
     Serve.Server.call server ~client:"test" ~name:"bad.c" ~kernel:"kernel"
       ~source:"void kernel( { not C at all"
   with
  | Serve.Protocol.Error (`Compile_error, _) -> ()
  | _ -> Alcotest.fail "malformed program must yield a compile-error reply");
  (match Serve.Server.answer server Serve.Protocol.Ping with
  | Serve.Protocol.Pong -> ()
  | _ -> Alcotest.fail "ping");
  (match Serve.Server.answer server Serve.Protocol.Stats_req with
  | Serve.Protocol.Stats_reply _ -> ()
  | _ -> Alcotest.fail "stats");
  Serve.Server.stop server

let test_overload_sheds_explicitly () =
  with_supervision @@ fun () ->
  let p = (Lazy.force corpus).(0) in
  let server =
    Serve.Server.create ~max_queue:2 ~autostart:false (Lazy.force agent)
  in
  let submit () =
    Serve.Server.submit server ~client:"test"
      ~name:p.Dataset.Program.p_name ~kernel:p.Dataset.Program.p_kernel
      ~source:p.Dataset.Program.p_source
  in
  let accepted = [ submit (); submit () ] in
  (* queue full: the third is shed immediately, with a structured reply *)
  let shed = (Neurovec.Stats.snapshot ()).Neurovec.Stats.serve_shed in
  (match Serve.Server.await (submit ()) with
  | Serve.Protocol.Error (`Overloaded, _) -> ()
  | _ -> Alcotest.fail "expected an overloaded reply");
  Alcotest.(check int)
    "shed counted" (shed + 1)
    (Neurovec.Stats.snapshot ()).Neurovec.Stats.serve_shed;
  (* the accepted ones still get real replies when the batcher drains *)
  Serve.Server.start server;
  List.iter
    (fun mb -> ignore (answer_of (Serve.Server.await mb)))
    accepted;
  Serve.Server.stop server

let test_drain_answers_everything () =
  with_supervision @@ fun () ->
  let corpus = Lazy.force corpus in
  let server = Serve.Server.create ~autostart:false (Lazy.force agent) in
  let boxes =
    Array.to_list
      (Array.map
         (fun p ->
           Serve.Server.submit server ~client:"test"
             ~name:p.Dataset.Program.p_name
             ~kernel:p.Dataset.Program.p_kernel
             ~source:p.Dataset.Program.p_source)
         corpus)
  in
  (* stop with work queued and no batcher running: the drain must still
     answer every accepted request, then refuse new ones *)
  Serve.Server.stop server;
  List.iter (fun mb -> ignore (answer_of (Serve.Server.await mb))) boxes;
  match call_p server corpus.(0) with
  | Serve.Protocol.Error (`Shutting_down, _) -> ()
  | _ -> Alcotest.fail "post-drain requests must be refused, typed"

let test_batching_shares_forward_passes () =
  with_supervision @@ fun () ->
  let corpus = Lazy.force corpus in
  Neurovec.Frontend.clear ();
  let server = Serve.Server.create ~autostart:false (Lazy.force agent) in
  let boxes =
    Array.to_list
      (Array.map
         (fun p ->
           Serve.Server.submit server ~client:"test"
             ~name:p.Dataset.Program.p_name
             ~kernel:p.Dataset.Program.p_kernel
             ~source:p.Dataset.Program.p_source)
         corpus)
  in
  let max0 = (Neurovec.Stats.snapshot ()).Neurovec.Stats.serve_batch_max in
  Serve.Server.start server;
  List.iter (fun mb -> ignore (Serve.Server.await mb)) boxes;
  Serve.Server.stop server;
  let max1 = (Neurovec.Stats.snapshot ()).Neurovec.Stats.serve_batch_max in
  if max1 < max0 || max1 < Array.length corpus then
    Alcotest.failf
      "queued requests were not batched (batch max %d, %d queued)" max1
      (Array.length corpus)

let test_breaker_opens_and_recovers () =
  with_supervision @@ fun () ->
  let server =
    Serve.Server.create ~breaker_threshold:2 ~breaker_cooldown:2
      (Lazy.force agent)
  in
  let bad () =
    Serve.Server.call server ~client:"evil" ~name:"bad.c" ~kernel:"kernel"
      ~source:"not a program"
  in
  let good =
    let p = (Lazy.force corpus).(0) in
    fun () ->
      Serve.Server.call server ~client:"evil"
        ~name:p.Dataset.Program.p_name ~kernel:p.Dataset.Program.p_kernel
        ~source:p.Dataset.Program.p_source
  in
  let expect what want reply =
    match (want, reply) with
    | `Compile, Serve.Protocol.Error (`Compile_error, _) -> ()
    | `Open, Serve.Protocol.Error (`Breaker_open, _) -> ()
    | `Answer, Serve.Protocol.Answer _ -> ()
    | _ -> Alcotest.failf "%s: unexpected reply" what
  in
  expect "failure 1" `Compile (bad ());
  expect "failure 2 (trips)" `Compile (bad ());
  expect "shed 1" `Open (bad ());
  expect "shed 2" `Open (bad ());
  (* cooldown spent: the next request is the half-open probe; it fails,
     so the breaker reopens *)
  expect "probe fails" `Compile (bad ());
  expect "reopened" `Open (bad ());
  expect "reopened 2" `Open (bad ());
  (* this probe succeeds: breaker closes, traffic flows again *)
  expect "probe succeeds" `Answer (good ());
  expect "closed" `Answer (good ());
  (* other clients were never affected *)
  (match call_p server (Lazy.force corpus).(1) with
  | Serve.Protocol.Answer _ -> ()
  | _ -> Alcotest.fail "another client caught the breaker");
  Serve.Server.stop server

let test_warm_restart_bit_identical () =
  with_supervision ~deadline:0.2 @@ fun () ->
  let corpus = Lazy.force corpus in
  let path = tmp_path "warm_store" in
  (try Sys.remove path with Sys_error _ -> ());
  let options =
    { Neurovec.Pipeline.default_options with
      faults = Neurovec.Faults.create ~seed:7 ~stall:0.02 ~transient:0.1 () }
  in
  let run () =
    Neurovec.Frontend.clear ();
    let server =
      Serve.Server.create ~options ~store_path:path (Lazy.force agent)
    in
    let replies =
      Array.map
        (fun p -> Serve.Protocol.encode_reply (call_p server p))
        corpus
    in
    Serve.Server.stop server;
    replies
  in
  let cold = run () in
  let hits0 = (Neurovec.Stats.snapshot ()).Neurovec.Stats.store_hits in
  let warm = run () in
  Array.iteri
    (fun i c ->
      if c <> warm.(i) then
        Alcotest.failf "warm reply %d diverged from the cold run" i)
    cold;
  let hits1 = (Neurovec.Stats.snapshot ()).Neurovec.Stats.store_hits in
  Alcotest.(check int)
    "warm run served from the store"
    (hits0 + Array.length corpus)
    hits1;
  Sys.remove path

let test_faulty_answers_equal_fault_free () =
  with_supervision ~deadline:0.2 ~retries:6 @@ fun () ->
  (* transient faults retry deterministically and never change values:
     a request that succeeds under faults matches the fault-free text *)
  let p = (Lazy.force corpus).(2) in
  let options =
    { Neurovec.Pipeline.default_options with
      faults = Neurovec.Faults.create ~seed:7 ~transient:0.1 () }
  in
  let server = Serve.Server.create ~options (Lazy.force agent) in
  let text = answer_of (call_p server p) in
  Serve.Server.stop server;
  Alcotest.(check string) "values unchanged" (expected_answer p) text

(* ------------------------------------------------------------------ *)
(* Signal-handler layering (Supervisor satellite)                       *)
(* ------------------------------------------------------------------ *)

let wait_for (pred : unit -> bool) : unit =
  (* signal handlers run at a safepoint; poll for one instead of hoping a
     single fixed delay is enough on a loaded machine *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done

let test_signal_install_composes () =
  with_supervision @@ fun () ->
  let host_hits = ref 0 in
  let host_handler _ = incr host_hits in
  let prev = Sys.signal Sys.sigterm (Sys.Signal_handle host_handler) in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigterm prev)
  @@ fun () ->
  (* double install (serve session + train-under-serve) must not clobber *)
  Neurovec.Supervisor.install_signal_handlers ();
  Neurovec.Supervisor.install_signal_handlers ();
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  wait_for (fun () ->
      Neurovec.Supervisor.shutdown_requested () && !host_hits = 1);
  Alcotest.(check bool)
    "first signal requests shutdown" true
    (Neurovec.Supervisor.shutdown_requested ());
  Alcotest.(check int) "host handler chained" 1 !host_hits;
  Neurovec.Supervisor.reset_shutdown ();
  (* one uninstall leaves the outer install active *)
  Neurovec.Supervisor.uninstall_signal_handlers ();
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  wait_for (fun () ->
      Neurovec.Supervisor.shutdown_requested () && !host_hits = 2);
  Alcotest.(check bool)
    "still supervised after one uninstall" true
    (Neurovec.Supervisor.shutdown_requested ());
  Alcotest.(check int) "host handler chained again" 2 !host_hits;
  Neurovec.Supervisor.reset_shutdown ();
  (* last uninstall restores the displaced host handler *)
  Neurovec.Supervisor.uninstall_signal_handlers ();
  (match Sys.signal Sys.sigterm Sys.Signal_default with
  | Sys.Signal_handle f when f == host_handler ->
      ignore (Sys.signal Sys.sigterm (Sys.Signal_handle host_handler))
  | b ->
      ignore (Sys.signal Sys.sigterm b);
      Alcotest.fail "displaced handler was not restored");
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  wait_for (fun () -> !host_hits = 3);
  Alcotest.(check bool)
    "uninstalled: no shutdown semantics" false
    (Neurovec.Supervisor.shutdown_requested ());
  Alcotest.(check int) "host handler alone" 3 !host_hits

let suite =
  [
    ( "serve.protocol",
      [
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        QCheck_alcotest.to_alcotest prop_reply_roundtrip;
        QCheck_alcotest.to_alcotest prop_request_garbage;
        Alcotest.test_case "fixed hostile payloads" `Quick
          test_protocol_garbage_fixed;
        Alcotest.test_case "oversized frame drained" `Quick
          test_frame_oversize_drained;
        Alcotest.test_case "torn frame is EOF" `Quick
          test_frame_truncated_is_eof;
      ] );
    ( "serve.store",
      [
        Alcotest.test_case "clean round-trip" `Quick
          test_store_clean_roundtrip;
        Alcotest.test_case "truncated entry" `Quick
          test_store_truncated_entry;
        Alcotest.test_case "flipped payload byte" `Quick
          test_store_flipped_payload_byte;
        Alcotest.test_case "bad CRC footer" `Quick test_store_bad_crc_footer;
        Alcotest.test_case "torn concurrent write" `Quick
          test_store_torn_concurrent_write;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "answers match serial predict" `Quick
          test_answers_match_serial_predict;
        Alcotest.test_case "typed error replies" `Quick
          test_typed_error_replies;
        Alcotest.test_case "overload sheds explicitly" `Quick
          test_overload_sheds_explicitly;
        Alcotest.test_case "drain answers everything" `Quick
          test_drain_answers_everything;
        Alcotest.test_case "batching shares forward passes" `Quick
          test_batching_shares_forward_passes;
        Alcotest.test_case "breaker opens and recovers" `Quick
          test_breaker_opens_and_recovers;
        Alcotest.test_case "warm restart bit-identical" `Quick
          test_warm_restart_bit_identical;
        Alcotest.test_case "faulty answers equal fault-free" `Quick
          test_faulty_answers_equal_fault_free;
      ] );
    ( "serve.signals",
      [
        Alcotest.test_case "install composes and chains" `Quick
          test_signal_install_composes;
      ] );
  ]
