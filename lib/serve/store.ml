(** Crash-safe on-disk tier of the serve daemon's two-tier cache.

    The store is a content-addressed append-only log mapping request keys
    (program content hash + pipeline options + kernel + model fingerprint)
    to the exact reply bytes the daemon computed — so a restarted daemon
    answers warm requests {e bit-identically} to the cold run that
    populated it, without a forward pass or a compile.

    {b Layout.}  An {!Fsio.Log} behind the header {!header}: one ['R']
    record per entry, key = request key, value = reply bytes.  The log
    owns the framing, the CRC and the recovery rule: a CRC reject is
    skipped (and counted, {!Stats.record_store_crc_reject}), a torn tail
    ends the load, and a damaged file is quarantined to
    [<path>.quarantined] with its survivors rewritten atomically before
    the store accepts traffic — failing closed with {!Fsio.Disk_fault}
    (the damaged file left in place) if that rewrite faults.  A file of
    an older format is quarantined the same way and the store starts
    empty: every entry is a deterministic reply, so the cost is
    recomputation, never a wrong byte.

    Appends are first-wins (matching the in-memory caches: a key is
    computed once, re-puts are ignored) and flushed eagerly, so a SIGKILL
    loses at most the in-flight record.  All operations are mutex-guarded;
    the daemon's batcher and flush paths may touch the store from
    different threads. *)

let header = "# neurovec-store 2\n"

type t = {
  s_lock : Mutex.t;
  s_tbl : (string, string) Hashtbl.t;
  s_log : Fsio.Log.t;
  s_recovery : Fsio.Log.recovery;  (** what the open-time load skipped *)
}

(** Open (creating if missing) the store at [path], recovering whatever
    the last process left: intact records load, corrupt ones are counted
    and dropped, and a damaged log is quarantined + compacted before the
    store accepts traffic. *)
let open_store (path : string) : t =
  Neurovec.Supervisor.mkdir_p (Filename.dirname path);
  let tbl = Hashtbl.create 256 in
  let log, rc =
    Fsio.Log.open_ ~op:"store" ~header path ~f:(fun r ->
        (* first-wins, matching the append-side contract *)
        if r.kind = 'R' && not (Hashtbl.mem tbl r.key) then
          Hashtbl.replace tbl r.key r.value)
  in
  for _ = 1 to rc.rejected do
    Neurovec.Stats.record_store_crc_reject ()
  done;
  { s_lock = Mutex.create (); s_tbl = tbl; s_log = log; s_recovery = rc }

(** Cached reply bytes for [key], counting the hit or miss in {!Stats}. *)
let get (t : t) (key : string) : string option =
  let r = Mutex.protect t.s_lock (fun () -> Hashtbl.find_opt t.s_tbl key) in
  (match r with
  | Some _ -> Neurovec.Stats.record_store_hit ()
  | None -> Neurovec.Stats.record_store_miss ());
  r

(** Record [key -> value], appending and flushing one log record.
    First-wins: a key already present is left untouched (replies are pure
    functions of the key, so a re-put can only be the same bytes).  The
    append fails closed ({!Fsio.Log.append}): the in-memory tier still
    serves the value; only its durability is lost. *)
let put (t : t) (key : string) (value : string) : unit =
  Mutex.protect t.s_lock (fun () ->
      if not (Hashtbl.mem t.s_tbl key) then begin
        Hashtbl.replace t.s_tbl key value;
        ignore (Fsio.Log.append t.s_log 'R' key value)
      end)

let length (t : t) : int =
  Mutex.protect t.s_lock (fun () -> Hashtbl.length t.s_tbl)

(** Records recovered intact / CRC-rejected / torn-tail flag from the
    open-time load (for the daemon's startup banner and the tests). *)
let recovery (t : t) : int * int * bool =
  let rc = t.s_recovery in
  (rc.loaded, rc.rejected, rc.torn)

let close (t : t) : unit = Mutex.protect t.s_lock (fun () -> Fsio.Log.close t.s_log)
