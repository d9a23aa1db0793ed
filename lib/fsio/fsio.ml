(** Durable-write primitives with deterministic disk-fault injection,
    and the one record log every durable stream is built on.

    Every durable writer in the system — agent checkpoints, the
    write-ahead reward journal, the serve daemon's on-disk store, the
    checkpoint lineage audit — funnels its bytes through this module, so
    a single injection point can simulate the disk failing under all of
    them: ENOSPC ([Disk_full]), an I/O error ([Disk_err]), and the
    nastiest of the three, a {e short write} that leaves a torn prefix of
    the record on disk before the error surfaces.  The writers' recovery
    contracts (atomic temp+rename, torn-tail truncation, CRC quarantine)
    are then testable without a real full disk.

    The journal, the store and the lineage audit share one framed,
    checksummed format and one recovery rule: {!Log}.  Checkpoints are
    single atomic files guarded by {!crc32}.

    This library sits {e below} the fault policy: it neither hashes seeds
    nor parses specs.  The policy side ({!Faults} in the core library)
    installs an injector — a pure function of (operation, path, attempt
    index) — via {!set_injector}; with no injector installed every
    primitive is a plain write.  Keying by attempt index makes injected
    faults transient the way real ENOSPC usually is: the same logical
    write can fail on its first attempt and succeed on a retry, and
    whether it does is reproducible at any pool size.

    Counters ({!faults_injected}, {!write_errors}, {!tmp_swept}) are
    process-global and pulled into the {!Stats} scoreboard by the core
    library. *)

type fault_kind =
  | Disk_full  (** ENOSPC: the write fails before any byte lands *)
  | Disk_err  (** EIO-style failure; no bytes land *)
  | Short_write
      (** a prefix of the payload lands on disk, then the error surfaces
          — the case atomic-rename and torn-tail recovery exist for *)

let fault_kind_name = function
  | Disk_full -> "disk_full"
  | Disk_err -> "disk_err"
  | Short_write -> "short_write"

exception
  Disk_fault of {
    op : string;  (** logical operation, e.g. "checkpoint", "journal" *)
    path : string;
    kind : fault_kind;
  }

let () =
  Printexc.register_printer (function
    | Disk_fault { op; path; kind } ->
        Some
          (Printf.sprintf "Fsio.Disk_fault(%s on %s during %s)"
             (fault_kind_name kind) path op)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, the zlib polynomial)                              *)
(* ------------------------------------------------------------------ *)

(* built eagerly: logs are appended from several domains, and a lazy
   value forced by two domains at once raises *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* CRC32 of [len] bytes of [b] from [pos], as a non-negative int *)
let crc32_sub (b : Bytes.t) (pos : int) (len : int) : int =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      crc_table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(** CRC32 of [s]: the checkpoint integrity footer and the {!Log} record
    checksum. *)
let crc32 (s : string) : int32 =
  Int32.of_int (crc32_sub (Bytes.unsafe_of_string s) 0 (String.length s))

(* ------------------------------------------------------------------ *)
(* Injection plumbing                                                   *)
(* ------------------------------------------------------------------ *)

type injector = op:string -> path:string -> index:int -> fault_kind option

let lock = Mutex.create ()

let injector : injector option ref = ref None

(* attempt index per (op, basename): the injector sees how many times
   this logical write has been tried, so faults can be transient *)
let attempts : (string, int) Hashtbl.t = Hashtbl.create 16

let n_injected = Atomic.make 0

let n_write_errors = Atomic.make 0

let n_tmp_swept = Atomic.make 0

(** Install the fault policy.  [None] (the default) disables injection
    and resets the attempt counters, so test scopes start clean. *)
let set_injector (f : injector option) : unit =
  Mutex.protect lock (fun () ->
      injector := f;
      Hashtbl.reset attempts)

(** Faults injected / writer-reported disk errors / stale temp files
    swept, since the last {!reset_counters}. *)
let faults_injected () = Atomic.get n_injected

let write_errors () = Atomic.get n_write_errors

let tmp_swept () = Atomic.get n_tmp_swept

(** Called by a writer when it caught a [Disk_fault] (or a real
    [Sys_error]) and degraded or recovered; feeds the scoreboard. *)
let record_write_error () = Atomic.incr n_write_errors

let reset_counters () =
  Atomic.set n_injected 0;
  Atomic.set n_write_errors 0;
  Atomic.set n_tmp_swept 0

(* the fault (if any) for this attempt of (op, path); bumps the attempt
   counter as a side effect *)
let consult ~(op : string) ~(path : string) : fault_kind option =
  match !injector with
  | None -> None
  | Some f ->
      let decision =
        Mutex.protect lock (fun () ->
            match !injector with
            | None -> None
            | Some _ ->
                let key = op ^ "\x00" ^ Filename.basename path in
                let index =
                  Option.value ~default:0 (Hashtbl.find_opt attempts key)
                in
                Hashtbl.replace attempts key (index + 1);
                f ~op ~path ~index)
      in
      (match decision with
      | Some _ -> Atomic.incr n_injected
      | None -> ());
      decision

(* ------------------------------------------------------------------ *)
(* Guarded primitives                                                   *)
(* ------------------------------------------------------------------ *)

(** Append [data] to the open channel [oc] and flush.  Under an injected
    fault: [Disk_full]/[Disk_err] fail before any byte is written;
    [Short_write] writes (and flushes) a strict prefix first, so the
    caller's torn-record recovery actually has a torn record to recover
    from.  Raises {!Disk_fault}; the channel stays usable. *)
let output ~(op : string) ~(path : string) (oc : out_channel)
    (data : string) : unit =
  match consult ~op ~path with
  | None ->
      output_string oc data;
      flush oc
  | Some Short_write when String.length data > 1 ->
      output_string oc (String.sub data 0 (String.length data / 2));
      flush oc;
      raise (Disk_fault { op; path; kind = Short_write })
  | Some kind -> raise (Disk_fault { op; path; kind })

(** Truncate the file at [path] back to [len] bytes — the writer-side
    undo for a torn append.  Best-effort: returns whether the truncate
    succeeded (a file that vanished counts as success). *)
let truncate_back (path : string) (len : int) : bool =
  match Unix.openfile path [ Unix.O_WRONLY ] 0o644 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> true
  | exception Unix.Unix_error _ -> false
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.ftruncate fd len with
          | () -> true
          | exception Unix.Unix_error _ -> false)

(* write [data] to [path ^ ".tmp"] through the fault layer and return
   the temp path; under a fault the temp file is removed first *)
let stage ~(op : string) (path : string) (data : string) : string =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try output ~op ~path oc data
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  tmp

(** Replace [path] with [data] atomically: the bytes land in
    [path ^ ".tmp"] first and are renamed over [path] only once complete.
    Under an injected fault the temp file is removed and {!Disk_fault}
    raised — [path] is never touched, so the previous version survives
    bit for bit. *)
let atomic_replace ~(op : string) (path : string) (data : string) : unit =
  Sys.rename (stage ~op path data) path

(** Remove a stale [".tmp"] sibling left by an interrupted atomic write
    next to [path]; counted in {!tmp_swept}.  Never touches [path]
    itself, and never raises. *)
let sweep_tmp (path : string) : bool =
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then (
    match Sys.remove tmp with
    | () ->
        Atomic.incr n_tmp_swept;
        true
    | exception Sys_error _ -> false)
  else false

(* ------------------------------------------------------------------ *)
(* The record log                                                       *)
(* ------------------------------------------------------------------ *)

(** An append-only log of checksummed records behind a header line —
    the one durable record format (reward journal, serve store, lineage
    audit).

    {v
    header                        e.g. "# neurovec-journal 2\n"
    kind  u32 klen  u32 vlen  key  value  u32 crc32(kind .. value)
    v}

    Integers are big-endian; [kind] is one byte whose meaning belongs to
    the stream.  The CRC covers the kind byte, both lengths, the key and
    the value, so no flipped byte anywhere in a record — not even one
    turning a [B] record into an [E] record, or moving the key/value
    boundary — can replay.

    {b Recovery.}  Reading never trusts a record it cannot prove whole:
    a record whose CRC does not match is skipped (its lengths still frame
    the next record), a record running past the end of the file is a
    torn tail and ends the load, and a wrong or unknown header keeps
    nothing.  {!open_} then quarantines a damaged file to
    [<path>.quarantined] and atomically rewrites the survivors, so the
    next open is clean and the evidence is kept.  Old formats go the
    same way as damage: their header does not match. *)
module Log = struct
  type record = {
    kind : char;
    key : string;
    value : string;
    offset : int;  (** byte offset of the record's kind byte *)
  }

  type recovery = {
    loaded : int;  (** records whose CRC held *)
    rejected : int;  (** records skipped on a CRC mismatch *)
    torn : bool;  (** the load ended early: torn tail or wrong header *)
  }

  type t = {
    l_path : string;
    l_op : string;  (** the operation name the fault injector sees *)
    mutable l_oc : out_channel option;  (** append channel, opened lazily *)
    mutable l_offset : int;  (** file length after the last whole record *)
    mutable l_dead : bool;  (** a torn append could not be undone *)
  }

  let frame (kind : char) (key : string) (value : string) : string =
    let klen = String.length key and vlen = String.length value in
    let b = Bytes.create (13 + klen + vlen) in
    Bytes.set b 0 kind;
    Bytes.set_int32_be b 1 (Int32.of_int klen);
    Bytes.set_int32_be b 5 (Int32.of_int vlen);
    Bytes.blit_string key 0 b 9 klen;
    Bytes.blit_string value 0 b (9 + klen) vlen;
    Bytes.set_int32_be b (9 + klen + vlen)
      (Int32.of_int (crc32_sub b 0 (9 + klen + vlen)));
    Bytes.unsafe_to_string b

  let u32 (s : string) (pos : int) : int =
    Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF

  (* fold [f] over the intact records of [data]; an empty [data] is an
     empty log *)
  let scan ~(header : string) (data : string) (f : 'a -> record -> 'a)
      (acc : 'a) : 'a * recovery =
    let n = String.length data and h = String.length header in
    let rec go pos acc loaded rejected =
      let stop torn = (acc, { loaded; rejected; torn }) in
      if pos = n then stop false
      else if n - pos < 13 then stop true
      else
        let klen = u32 data (pos + 1) and vlen = u32 data (pos + 5) in
        if klen > n - pos - 13 || vlen > n - pos - 13 - klen then stop true
        else
          let body = 9 + klen + vlen in
          let next = pos + body + 4 in
          if crc32_sub (Bytes.unsafe_of_string data) pos body
             <> u32 data (pos + body)
          then go next acc loaded (rejected + 1)
          else
            let r =
              { kind = data.[pos]; key = String.sub data (pos + 9) klen;
                value = String.sub data (pos + 9 + klen) vlen; offset = pos }
            in
            go next (f acc r) (loaded + 1) rejected
    in
    if n = 0 then (acc, { loaded = 0; rejected = 0; torn = false })
    else if n < h || String.sub data 0 h <> header then
      (acc, { loaded = 0; rejected = 0; torn = true })
    else go h acc 0 0

  let read (path : string) : string =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
    else ""

  (** Fold [f] over the intact records of the log at [path] in file
      order, with what the load had to skip.  Read-only: damage is
      reported, not repaired.  A missing file is an empty log. *)
  let fold ~(header : string) (path : string) (f : 'a -> record -> 'a)
      (acc : 'a) : 'a * recovery =
    scan ~header (read path) f acc

  (** What a load of [path] would skip, without repairing anything. *)
  let inspect ~(header : string) (path : string) : recovery =
    snd (fold ~header path (fun () _ -> ()) ())

  (** Open the log at [path] for appending, creating it (header only)
      when missing or empty.  [f] sees every intact record in file order.
      A damaged file is quarantined and its survivors rewritten: the
      rewrite is staged in [<path>.tmp] through the fault layer {e
      before} the damaged file moves aside, so an injected fault raises
      {!Disk_fault} with the damaged-but-loadable file still in place
      for a retry.  A stale [<path>.tmp] (an interrupted rewrite) is
      swept first, never read. *)
  let open_ ?(f = fun (_ : record) -> ()) ~(op : string) ~(header : string)
      (path : string) : t * recovery =
    ignore (sweep_tmp path);
    let data = read path in
    let (), rc = scan ~header data (fun () r -> f r) () in
    let length =
      if data = "" then begin
        (* plain tmp+rename: creating a log never consults the injector *)
        let tmp = path ^ ".tmp" in
        Out_channel.with_open_bin tmp (fun oc -> output_string oc header);
        Sys.rename tmp path;
        String.length header
      end
      else if rc.rejected > 0 || rc.torn then begin
        let buf = Buffer.create (String.length data) in
        Buffer.add_string buf header;
        ignore
          (scan ~header data
             (fun () r -> Buffer.add_string buf (frame r.kind r.key r.value))
             ());
        let tmp = stage ~op path (Buffer.contents buf) in
        let quarantine = path ^ ".quarantined" in
        (try Sys.remove quarantine with Sys_error _ -> ());
        Sys.rename path quarantine;
        Sys.rename tmp path;
        Buffer.length buf
      end
      else String.length data
    in
    ( { l_path = path; l_op = op; l_oc = None; l_offset = length;
        l_dead = false },
      rc )

  (** Append one record and flush it; returns whether it landed.  Fails
      closed: on an injected or real write error the file is truncated
      back to the end of the last whole record — a short write must not
      leave a torn record framing later appends out of reach — and the
      channel is dropped so the next append reopens and retries.  If the
      truncate itself fails the log stops appending. *)
  let append (t : t) (kind : char) (key : string) (value : string) : bool =
    let bytes = frame kind key value in
    (not t.l_dead)
    &&
    match
      let oc =
        match t.l_oc with
        | Some oc -> oc
        | None ->
            let oc =
              open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644
                t.l_path
            in
            t.l_oc <- Some oc;
            oc
      in
      output ~op:t.l_op ~path:t.l_path oc bytes
    with
    | () ->
        t.l_offset <- t.l_offset + String.length bytes;
        true
    | exception (Disk_fault _ | Sys_error _) ->
        record_write_error ();
        Option.iter close_out_noerr t.l_oc;
        t.l_oc <- None;
        if not (truncate_back t.l_path t.l_offset) then t.l_dead <- true;
        false

  let close (t : t) : unit =
    Option.iter close_out_noerr t.l_oc;
    t.l_oc <- None
end
