module Fs = Sdb_storage.Fs
module Crc32 = Sdb_util.Crc32
module Metrics = Sdb_obs.Metrics

let m_appends =
  Metrics.counter "sdb_wal_appends_total" ~help:"Log entries appended."

let m_appended_bytes =
  Metrics.counter "sdb_wal_appended_bytes_total"
    ~help:"Framed bytes appended to the log."

let m_append_seconds =
  Metrics.histogram "sdb_wal_append_seconds"
    ~help:"Latency of one framed append (write, no sync)."

let m_fsync_seconds =
  Metrics.histogram "sdb_wal_fsync_seconds" ~help:"Latency of one log fsync."

let m_syncs = Metrics.counter "sdb_wal_syncs_total" ~help:"Log fsyncs issued."

let m_group_flushes =
  Metrics.counter "sdb_wal_group_flushes_total"
    ~help:"Group-commit flushes: one write + one fsync covering all staged frames."

let m_entries_read =
  Metrics.counter "sdb_wal_entries_read_total"
    ~help:"Valid entries decoded by log scans."

let m_crc_failures =
  Metrics.counter "sdb_wal_crc_failures_total"
    ~help:"Entries whose CRC or payload read failed during a scan."

let m_torn_tails =
  Metrics.counter "sdb_wal_torn_tails_total"
    ~help:"Scans that stopped early at a damaged or truncated tail."

let magic = "SDBWAL1\n"
let fingerprint_size = 16
let header_size = String.length magic + fingerprint_size
let frame_overhead = 8 (* u32 length + u32 crc *)
let max_entry_size = 1 lsl 28

type error =
  | Not_a_log of string
  | Fingerprint_mismatch of { expected : string; found : string }

let pp_error ppf = function
  | Not_a_log reason -> Format.fprintf ppf "not a log file: %s" reason
  | Fingerprint_mismatch { expected; found } ->
    Format.fprintf ppf "log fingerprint mismatch: expected %s, found %s"
      (Digest.to_hex expected) (Digest.to_hex found)

let check_fingerprint fp =
  if String.length fp <> fingerprint_size then
    invalid_arg "Wal: fingerprint must be 16 bytes"

exception Append_rolled_back of exn

module Writer = struct
  type t = {
    fs : Fs.t;
    file : string;
    w : Fs.writer;
    mutable entries : int;
    mutable length : int;
    mutable closed : bool;
    (* Payloads staged for the next group flush, newest first, and the
       framed bytes they will take. *)
    mutable staged : string list;
    mutable staged_frames : int;
    mutable staged_bytes : int;
  }

  let create fs file ~fingerprint =
    check_fingerprint fingerprint;
    let w = fs.Fs.create file in
    w.Fs.w_write (magic ^ fingerprint);
    w.Fs.w_sync ();
    { fs; file; w; entries = 0; length = header_size; closed = false;
      staged = []; staged_frames = 0; staged_bytes = 0 }

  let reopen fs file ~fingerprint ~valid_length ~entries =
    check_fingerprint fingerprint;
    if valid_length < header_size then
      invalid_arg "Wal.Writer.reopen: valid_length shorter than header";
    let size = fs.Fs.file_size file in
    if valid_length > size then invalid_arg "Wal.Writer.reopen: valid_length beyond EOF";
    if valid_length < size then fs.Fs.truncate file valid_length;
    let w = fs.Fs.open_append file in
    { fs; file; w; entries; length = valid_length; closed = false;
      staged = []; staged_frames = 0; staged_bytes = 0 }

  (* A failed append happens strictly before the entry's fsync, i.e.
     before the commit point, so the update can still fail cleanly —
     provided the log is put back exactly as it was.  [No_space] is
     already all-or-nothing (nothing was written); any other write
     failure may have left partial bytes, which we cut back off with a
     truncate to the last known-good length.  If the truncate succeeds
     the original failure is re-raised wrapped in {!Append_rolled_back}
     so the engine knows the log is intact; if even the truncate fails
     the original exception escapes untouched and the engine must
     poison. *)
  let write_rollback t s =
    try t.w.Fs.w_write s with
    | Fs.No_space _ as e -> raise (Append_rolled_back e)
    | Fs.Io_error _ as e -> (
      (* Only structured I/O failures are rolled back; anything else
         (e.g. a simulated whole-machine crash) passes through — there
         is no machine left to roll back on. *)
      match t.fs.Fs.truncate t.file t.length with
      | () -> raise (Append_rolled_back e)
      | exception _ -> raise e)

  let check t = if t.closed then Fs.io_fail ~op:"write" "Wal.Writer: used after close"

  (* Clamped: a backward wall-clock step (NTP) mid-write must not put a
     negative duration into the latency histograms. *)
  let elapsed_since t0 = Float.max 0.0 (Unix.gettimeofday () -. t0)

  let framed_size payload =
    let len = String.length payload in
    if len > max_entry_size then invalid_arg "Wal.Writer: entry too large";
    len + frame_overhead

  (* Frame payloads, oldest first, into one string of exactly [bytes]:
     a staged group is copied once, however large. *)
  let frame ~bytes payloads =
    let b = Bytes.create bytes in
    ignore
      (List.fold_left
         (fun off p ->
           let len = String.length p in
           Bytes.set_int32_le b off (Int32.of_int len);
           Bytes.set_int32_le b (off + 4) (Crc32.digest_string p);
           Bytes.blit_string p 0 b (off + frame_overhead) len;
           off + frame_overhead + len)
         0 payloads
        : int);
    Bytes.unsafe_to_string b

  (* Plain appends may interleave with a forming group only in the
     order stage* -> flush: a frame written here while frames are
     staged would land on disk *before* them, breaking LSN order. *)
  let check_no_group t what =
    if t.staged_frames > 0 then
      invalid_arg ("Wal.Writer." ^ what ^ ": a group is staged; flush or discard it first")

  let append t payload =
    check t;
    check_no_group t "append";
    Sdb_check.assert_no_mutex_held_during_io ~site:"wal.append";
    let framed = frame ~bytes:(framed_size payload) [ payload ] in
    let timed = Metrics.is_enabled () in
    let t0 = if timed then Unix.gettimeofday () else 0.0 in
    write_rollback t framed;
    if timed then Metrics.observe m_append_seconds (elapsed_since t0);
    Metrics.incr m_appends;
    Metrics.add m_appended_bytes (String.length framed);
    t.length <- t.length + String.length framed;
    let index = t.entries in
    t.entries <- index + 1;
    index

  let append_raw_frames t raw ~count =
    check t;
    check_no_group t "append_raw_frames";
    if count < 0 then invalid_arg "Wal.Writer.append_raw_frames: negative count";
    Sdb_check.assert_no_mutex_held_during_io ~site:"wal.append_raw_frames";
    write_rollback t raw;
    Metrics.add m_appends count;
    Metrics.add m_appended_bytes (String.length raw);
    t.length <- t.length + String.length raw;
    t.entries <- t.entries + count

  (* Group-commit staging is pure buffering: the leader runs it under
     the Update mode and nothing here may touch the disk. *)
  let stage t payload =
    check t;
    t.staged_bytes <- t.staged_bytes + framed_size payload;
    t.staged <- payload :: t.staged;
    t.staged_frames <- t.staged_frames + 1
    [@@sdb.noblock]

  let staged_frames t = t.staged_frames [@@sdb.noblock]
  let staged_bytes t = t.staged_bytes [@@sdb.noblock]

  let discard_group t =
    t.staged <- [];
    t.staged_frames <- 0;
    t.staged_bytes <- 0
    [@@sdb.noblock]

  let sync t =
    check t;
    Sdb_check.assert_no_mutex_held_during_io ~site:"wal.sync";
    let timed = Metrics.is_enabled () in
    let t0 = if timed then Unix.gettimeofday () else 0.0 in
    t.w.Fs.w_sync ();
    if timed then Metrics.observe m_fsync_seconds (elapsed_since t0);
    Metrics.incr m_syncs

  let append_sync t payload =
    let index = append t payload in
    sync t;
    index

  (* The group-commit emission: everything staged goes out as one
     write and one fsync.  A failed write is rolled back exactly like a
     plain append (the file is truncated to the last-good length and
     [Append_rolled_back] carries the cause) — but the staged frames
     are consumed either way: after any failure the group is gone and
     each member must be failed by the caller.  A failed fsync escapes
     raw, after the length/entry counters already cover the written
     frames — the caller must treat the log as suspect (fsyncgate). *)
  let flush_group t =
    check t;
    let count = t.staged_frames in
    if count = 0 then (t.entries, 0)
    else begin
      Sdb_check.assert_no_mutex_held_during_io ~site:"wal.flush_group";
      let raw = frame ~bytes:t.staged_bytes (List.rev t.staged) in
      discard_group t;
      let timed = Metrics.is_enabled () in
      let t0 = if timed then Unix.gettimeofday () else 0.0 in
      write_rollback t raw;
      if timed then Metrics.observe m_append_seconds (elapsed_since t0);
      Metrics.add m_appends count;
      Metrics.add m_appended_bytes (String.length raw);
      t.length <- t.length + String.length raw;
      let first = t.entries in
      t.entries <- first + count;
      Metrics.incr m_group_flushes;
      sync t;
      (first, count)
    end

  let entries t = t.entries
  let length t = t.length

  let close t =
    if not t.closed then begin
      t.closed <- true;
      t.w.Fs.w_close ()
    end
end

module Reader = struct
  type policy = Stop_at_damage | Skip_damaged
  type entry = { index : int; payload : string; offset : int }

  type outcome = {
    entries_read : int;
    skipped : int;
    valid_length : int;
    stopped_early : string option;
    entries_beyond_damage : int;
    damage : (int * string) list;
  }

  (* Read exactly [n] bytes unless EOF or damage intervenes. *)
  type chunk = Full of bytes | Short of int | Damaged of string

  let read_exact r n =
    let buf = Bytes.create n in
    let rec go got =
      if got = n then Full buf
      else
        match r.Fs.r_read buf got (n - got) with
        | 0 -> Short got
        | k -> go (got + k)
        | exception Fs.Read_error { reason; _ } -> Damaged reason
    in
    go 0

  let fold fs file ~fingerprint ~policy ~init ~f =
    check_fingerprint fingerprint;
    if not (fs.Fs.exists file) then Error (Not_a_log "file does not exist")
    else begin
      let r = fs.Fs.open_reader file in
      Fun.protect
        ~finally:(fun () -> r.Fs.r_close ())
        (fun () ->
          match read_exact r header_size with
          | Short _ -> Error (Not_a_log "file shorter than header")
          | Damaged reason -> Error (Not_a_log ("damaged header: " ^ reason))
          | Full hdr ->
            let found_magic = Bytes.sub_string hdr 0 (String.length magic) in
            if not (String.equal found_magic magic) then
              Error (Not_a_log "bad magic")
            else begin
              let found_fp = Bytes.sub_string hdr (String.length magic) fingerprint_size in
              if not (String.equal found_fp fingerprint) then
                Error (Fingerprint_mismatch { expected = fingerprint; found = found_fp })
              else begin
                let size = r.Fs.r_size in
                (* Probe past a damaged entry with a known extent: any
                   valid frames beyond it mean interior damage, not a
                   torn tail. *)
                let probe_beyond start =
                  let rec go offset found =
                    if offset + frame_overhead > size then found
                    else begin
                      r.Fs.r_seek offset;
                      match read_exact r frame_overhead with
                      | Short _ | Damaged _ -> found
                      | Full hdr ->
                        let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
                        let crc = Bytes.get_int32_le hdr 4 in
                        if len < 0 || len > max_entry_size
                           || offset + frame_overhead + len > size
                        then found
                        else begin
                          match read_exact r len with
                          | Short _ | Damaged _ -> found
                          | Full payload ->
                            if
                              Crc32.equal
                                (Crc32.digest_bytes payload ~pos:0 ~len)
                                crc
                            then go (offset + frame_overhead + len) (found + 1)
                            else found
                        end
                    end
                  in
                  go start 0
                in
                let rec loop acc index skipped dmg offset =
                  let finish ?probe_from reason =
                    let beyond =
                      match probe_from with
                      | Some start when reason <> None -> probe_beyond start
                      | _ -> 0
                    in
                    let dmg =
                      match reason with
                      | Some r when r <> "" -> (offset, r) :: dmg
                      | _ -> dmg
                    in
                    Metrics.add m_entries_read index;
                    if reason <> None then Metrics.incr m_torn_tails;
                    ( acc,
                      {
                        entries_read = index;
                        skipped;
                        valid_length = offset;
                        stopped_early = reason;
                        entries_beyond_damage = beyond;
                        damage = List.rev dmg;
                      } )
                  in
                  if offset >= size then finish None
                  else
                    match read_exact r frame_overhead with
                    | Short 0 -> finish None
                    | Short _ -> finish (Some "truncated frame header")
                    | Damaged reason ->
                      finish (Some ("damaged frame header: " ^ reason))
                    | Full hdr ->
                      let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
                      let crc = Bytes.get_int32_le hdr 4 in
                      if len < 0 || len > max_entry_size then
                        finish (Some "implausible entry length")
                      else if offset + frame_overhead + len > size then
                        finish (Some "truncated entry payload")
                      else begin
                        let after = offset + frame_overhead + len in
                        match read_exact r len with
                        | Short _ -> finish (Some "truncated entry payload")
                        | Damaged reason -> begin
                          Metrics.incr m_crc_failures;
                          match policy with
                          | Stop_at_damage ->
                            finish ~probe_from:after
                              (Some ("torn entry payload: " ^ reason))
                          | Skip_damaged ->
                            r.Fs.r_seek after;
                            loop acc index (skipped + 1)
                              ((offset, "torn entry payload: " ^ reason) :: dmg)
                              after
                        end
                        | Full payload_bytes ->
                          let payload = Bytes.unsafe_to_string payload_bytes in
                          if not (Crc32.equal (Crc32.digest_string payload) crc) then begin
                            Metrics.incr m_crc_failures;
                            match policy with
                            | Stop_at_damage ->
                              finish ~probe_from:after (Some "entry crc mismatch")
                            | Skip_damaged ->
                              loop acc index (skipped + 1)
                                ((offset, "entry crc mismatch") :: dmg)
                                after
                          end
                          else begin
                            let acc = f acc { index; payload; offset } in
                            loop acc (index + 1) skipped dmg after
                          end
                      end
                in
                Ok (loop init 0 0 [] header_size)
              end
            end)
    end

  let count_entries fs file ~fingerprint =
    match
      fold fs file ~fingerprint ~policy:Stop_at_damage ~init:0
        ~f:(fun acc _ -> acc + 1)
    with
    | Ok (n, outcome) -> Ok (n, outcome)
    | Error e -> Error e
end
