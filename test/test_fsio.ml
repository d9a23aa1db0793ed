(* The one durable record log ({!Fsio.Log}) behind the reward journal,
   the serve store and the lineage audit: its CRC, and a single
   corruption x disk-fault matrix.

   Every cell of the matrix writes a small log, damages it one way
   (flipped key, value, kind or CRC byte; torn tail; garbage tail; old
   header), and proves the recovery contract: the read-only fold reports
   exactly the damage, open quarantines the file and rewrites exactly
   the survivors, an append under an injected fault (ENOSPC, EIO, short
   write) leaves the file byte-identical, and the retried append lands
   and reloads clean. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let header = "# neurovec-test-log 1\n"

let tmp_seq = ref 0

let with_log_path (f : string -> 'a) : 'a =
  incr tmp_seq;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "neurovec_fsio_%d_%d.log" (Unix.getpid ()) !tmp_seq)
  in
  let clean () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; path ^ ".quarantined"; path ^ ".tmp" ]
  in
  clean ();
  Fun.protect ~finally:clean (fun () -> f path)

let with_injector (inj : Fsio.injector) (f : unit -> 'a) : 'a =
  Fsio.set_injector (Some inj);
  Fun.protect ~finally:(fun () -> Fsio.set_injector None) f

(* (kind, key, value) of the records a fold or open sees, in order *)
let triple (r : Fsio.Log.record) = (r.kind, r.key, r.value)

let entries =
  List.init 5 (fun i ->
      ( (if i mod 2 = 0 then 'A' else 'B'),
        Printf.sprintf "key-%d" i,
        Printf.sprintf "value-%d-%s" i (String.make (3 * i) 'v') ))

let records path =
  let rs, rc =
    Fsio.Log.fold ~header path (fun acc r -> triple r :: acc) []
  in
  (List.rev rs, rc)

let recovery =
  Alcotest.testable
    (fun ppf (rc : Fsio.Log.recovery) ->
      Format.fprintf ppf "{loaded=%d; rejected=%d; torn=%b}" rc.loaded
        rc.rejected rc.torn)
    ( = )

let triples = Alcotest.(list (triple char string string))

(* ------------------------------------------------------------------ *)
(* CRC32                                                                *)
(* ------------------------------------------------------------------ *)

(* the definition, one bit at a time *)
let crc32_bitwise (s : string) : int32 =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let test_crc32 () =
  Alcotest.(check int32) "check value of \"123456789\"" 0xCBF43926l
    (Fsio.crc32 "123456789");
  Alcotest.(check int32) "empty string" 0l (Fsio.crc32 "");
  List.iter
    (fun s ->
      Alcotest.(check int32) "table = bitwise definition" (crc32_bitwise s)
        (Fsio.crc32 s))
    [ "a"; "neurovec"; String.init 256 Char.chr; String.make 1000 '\xff' ]

(* ------------------------------------------------------------------ *)
(* Round trip                                                           *)
(* ------------------------------------------------------------------ *)

let write_entries path =
  let log, rc = Fsio.Log.open_ ~op:"test" ~header path in
  Alcotest.check recovery "a new log is clean"
    { Fsio.Log.loaded = 0; rejected = 0; torn = false }
    rc;
  List.iter
    (fun (k, key, v) ->
      Alcotest.(check bool) "append lands" true (Fsio.Log.append log k key v))
    entries;
  Fsio.Log.close log

let test_round_trip () =
  with_log_path (fun path ->
      Alcotest.check triples "a missing file is an empty log" []
        (fst (records path));
      write_entries path;
      let rs, rc = records path in
      Alcotest.check triples "fold sees every record in file order" entries rs;
      Alcotest.check recovery "nothing skipped"
        { Fsio.Log.loaded = 5; rejected = 0; torn = false }
        rc;
      (* reopening a clean log rewrites nothing and appends after it *)
      let before = read_file path in
      let seen = ref [] in
      let log, _ =
        Fsio.Log.open_ ~op:"test" ~header path ~f:(fun r ->
            seen := triple r :: !seen)
      in
      Alcotest.check triples "open feeds every record" entries (List.rev !seen);
      Alcotest.(check string) "clean log untouched" before (read_file path);
      Alcotest.(check bool) "no quarantine" false
        (Sys.file_exists (path ^ ".quarantined"));
      ignore (Fsio.Log.append log 'C' "" "");
      Fsio.Log.close log;
      Alcotest.check triples "append after reopen" (entries @ [ ('C', "", "") ])
        (fst (records path)))

(* ------------------------------------------------------------------ *)
(* The corruption x disk-fault matrix                                   *)
(* ------------------------------------------------------------------ *)

(* [data] with bit [mask] of the byte at [off] flipped *)
let flip data off mask =
  let b = Bytes.of_string data in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask));
  Bytes.to_string b

(* byte offset of each record of the clean log *)
let offsets path =
  List.rev
    (fst
       (Fsio.Log.fold ~header path
          (fun acc (r : Fsio.Log.record) -> r.offset :: acc)
          []))

let without i = List.filteri (fun j _ -> j <> i) entries

(* name, damage (clean bytes, record offsets -> damaged bytes), the
   records that survive, the recovery the load reports *)
let corruptions :
    (string * (string -> int list -> string) * _ list * Fsio.Log.recovery)
    list =
  let rejected i =
    (without i, { Fsio.Log.loaded = 4; rejected = 1; torn = false })
  in
  let case name damage (survivors, rc) = (name, damage, survivors, rc) in
  [ case "flipped key"
      (fun d offs -> flip d (List.nth offs 1 + 9) 0x01)
      (rejected 1);
    case "flipped value"
      (fun d offs -> flip d (List.nth offs 2 + 9 + 5 + 2) 0x40)
      (rejected 2);
    (* 'A' -> 'B': a well-formed kind, caught only because the CRC
       covers the kind byte *)
    case "flipped kind"
      (fun d offs -> flip d (List.nth offs 0) 0x03)
      (rejected 0);
    case "flipped CRC"
      (fun d offs -> flip d (List.nth offs 4 - 1) 0x80)
      (rejected 3);
    case "torn tail"
      (fun d _ -> String.sub d 0 (String.length d - 3))
      ( List.filteri (fun j _ -> j < 4) entries,
        { Fsio.Log.loaded = 4; rejected = 0; torn = true } );
    case "garbage tail"
      (fun d _ -> d ^ "\x01\x02garbage")
      (entries, { Fsio.Log.loaded = 5; rejected = 0; torn = true });
    case "old header"
      (fun d _ ->
        "# neurovec-test-log 0\n"
        ^ String.sub d (String.length header)
            (String.length d - String.length header))
      ([], { Fsio.Log.loaded = 0; rejected = 0; torn = true }) ]

let faults = [ Fsio.Disk_full; Fsio.Disk_err; Fsio.Short_write ]

let matrix_cell (name, damage, survivors, expected) kind () =
  with_log_path (fun path ->
      write_entries path;
      let damaged = damage (read_file path) (offsets path) in
      write_file path damaged;
      (* the fold reports the damage and repairs nothing *)
      let rs, rc = records path in
      Alcotest.check recovery (name ^ ": fold reports it") expected rc;
      Alcotest.check triples (name ^ ": fold skips it") survivors rs;
      Alcotest.(check string) "fold is read-only" damaged (read_file path);
      (* open quarantines the damaged file and rewrites the survivors *)
      let seen = ref [] in
      let log, rc =
        Fsio.Log.open_ ~op:"test" ~header path ~f:(fun r ->
            seen := triple r :: !seen)
      in
      Alcotest.check recovery "open reports it" expected rc;
      Alcotest.check triples "open feeds the survivors" survivors
        (List.rev !seen);
      Alcotest.(check string) "damaged file quarantined" damaged
        (read_file (path ^ ".quarantined"));
      let rewritten = read_file path in
      let rs, rc = records path in
      Alcotest.check triples "rewrite holds the survivors" survivors rs;
      Alcotest.(check bool) "rewrite is clean" true (rc.rejected = 0 && not rc.torn);
      (* an append under the fault fails closed: the file is unchanged *)
      let errors = Fsio.write_errors () in
      with_injector
        (fun ~op ~path:_ ~index ->
          if op = "test" && index = 0 then Some kind else None)
        (fun () ->
          Alcotest.(check bool) "faulted append reports failure" false
            (Fsio.Log.append log 'C' "new-key" "new-value");
          Alcotest.(check string) "no byte of it survives" rewritten
            (read_file path);
          Alcotest.(check int) "write error counted" (errors + 1)
            (Fsio.write_errors ());
          (* the retry (next attempt index) lands *)
          Alcotest.(check bool) "retry lands" true
            (Fsio.Log.append log 'C' "new-key" "new-value"));
      Fsio.Log.close log;
      let rs, rc = records path in
      Alcotest.check recovery "reload is clean"
        { Fsio.Log.loaded = List.length survivors + 1; rejected = 0; torn = false }
        rc;
      Alcotest.check triples "survivors, then the retried record"
        (survivors @ [ ('C', "new-key", "new-value") ])
        rs)

(* a fault while rewriting a damaged log leaves it in place for a retry *)
let test_rewrite_fails_closed () =
  with_log_path (fun path ->
      write_entries path;
      let full = read_file path in
      let torn = String.sub full 0 (String.length full - 3) in
      write_file path torn;
      with_injector
        (fun ~op:_ ~path:_ ~index:_ -> Some Fsio.Short_write)
        (fun () ->
          match Fsio.Log.open_ ~op:"test" ~header path with
          | _ -> Alcotest.fail "expected Disk_fault"
          | exception Fsio.Disk_fault _ -> ());
      Alcotest.(check string) "damaged log untouched" torn (read_file path);
      Alcotest.(check bool) "no temp litter" false
        (Sys.file_exists (path ^ ".tmp"));
      let _, rc = Fsio.Log.open_ ~op:"test" ~header path in
      Alcotest.(check bool) "retry recovers" true rc.torn;
      Alcotest.check recovery "and leaves a clean log"
        { Fsio.Log.loaded = 4; rejected = 0; torn = false }
        (Fsio.Log.inspect ~header path))

(* the installed fault policy spares the lineage audit and nothing else *)
let test_install_disk_spares_lineage () =
  with_log_path (fun path ->
      let spec, _ = Neurovec.Faults.of_string "seed=3,disk_full=1.0" in
      Neurovec.Faults.install_disk spec;
      Fun.protect
        ~finally:(fun () -> Neurovec.Faults.install_disk Neurovec.Faults.none)
        (fun () ->
          let append op =
            let log, _ = Fsio.Log.open_ ~op ~header path in
            let ok = Fsio.Log.append log 'R' "" op in
            Fsio.Log.close log;
            ok
          in
          Alcotest.(check bool) "lineage append lands" true (append "lineage");
          Alcotest.(check bool) "journal append faulted" false
            (append "journal");
          Alcotest.check triples "only the lineage record is on disk"
            [ ('R', "", "lineage") ]
            (fst (records path))))

let suite =
  [ ( "fsio.crc",
      [ Alcotest.test_case "CRC32 check values" `Quick test_crc32 ] );
    ( "fsio.log",
      [ Alcotest.test_case "round trip in file order" `Quick test_round_trip;
        Alcotest.test_case "rewrite fails closed, recovers on retry" `Quick
          test_rewrite_fails_closed;
        Alcotest.test_case "install_disk spares the lineage audit" `Quick
          test_install_disk_spares_lineage ] );
    ( "fsio.matrix",
      List.concat_map
        (fun ((name, _, _, _) as c) ->
          List.map
            (fun kind ->
              Alcotest.test_case
                (Printf.sprintf "%s x %s" name (Fsio.fault_kind_name kind))
                `Quick (matrix_cell c kind))
            faults)
        corruptions ) ]
