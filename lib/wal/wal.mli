(** The redo log (write-ahead log of committed updates).

    A log file is a fixed header followed by framed entries:

    {v
    header : magic "SDBWAL1\n" | fingerprint (16 bytes)
    entry  : length (u32 LE) | crc32 of payload (u32 LE) | payload
    v}

    The fingerprint is the pickle fingerprint of the update type, so a
    log written by a program with different types is rejected at open.

    Appending an entry and forcing it with one fsync is the paper's
    commit point: "if we crash before the write occurs on the disk, the
    update is not visible after a restart; if we crash after the write
    completes, the entire update will be completed after a restart"
    (§3).  The length prefix plus the device's partially-written-page
    error (simulated by {!Mem_fs}, approximated by the CRC on real
    files) lets the reader "detect a partially written log entry, even
    if the log entry would span multiple disk pages; such a partial log
    entry is discarded" (§4).

    {!Reader.fold} recovers the valid prefix and reports the byte
    offset where validity ends, so the engine can truncate a torn tail
    and resume appending.  The [Skip_damaged] policy implements the
    §4 hard-error option of "ignoring just the damaged log entry" when
    the application's updates are independent. *)

type error =
  | Not_a_log of string  (** missing/short/foreign header *)
  | Fingerprint_mismatch of { expected : string; found : string }

val pp_error : Format.formatter -> error -> unit

exception Append_rolled_back of exn
(** A log append failed {e before} the commit point and the log was
    restored to exactly its prior contents (truncated back to the last
    known-good length, or nothing was written at all as with
    {!Sdb_storage.Fs.No_space}).  Carries the original failure.  The
    engine may reject the one update cleanly and keep running.  When an
    append failure escapes {e without} this wrapper, partial bytes may
    remain and the caller must treat the log as suspect. *)

val header_size : int
val frame_overhead : int
(** Bytes of framing added per entry (length + CRC words). *)

module Writer : sig
  type t

  val create : Sdb_storage.Fs.t -> string -> fingerprint:string -> t
  (** Create/truncate the file, write and sync the header. *)

  val reopen :
    Sdb_storage.Fs.t -> string -> fingerprint:string -> valid_length:int ->
    entries:int -> t
  (** Resume appending to a recovered log.  [valid_length] is the byte
      offset reported by {!Reader.fold}; anything beyond it is
      truncated first. *)

  (** {2 Group commit}

      N updates, one disk transfer: frames are {!stage}d into a pending
      in-memory group, then {!flush_group} emits the whole group as one
      write plus one fsync.  The staged frames are invisible to
      {!entries}/{!length} (and to readers) until the flush. *)

  val stage : t -> string -> unit
  (** Frame the payload and add it to the pending group.  Nothing
      reaches the file system. *)

  val staged_frames : t -> int
  (** Frames currently staged. *)

  val staged_bytes : t -> int
  (** Framed bytes currently staged. *)

  val flush_group : t -> int * int
  (** Write every staged frame with one append and force it with one
      fsync — the whole group's commit point.  Returns
      [(first_index, count)]: the staged frames now occupy entry
      indices [first_index .. first_index + count - 1].  With nothing
      staged, does no I/O and returns [(entries t, 0)].

      The staged group is consumed even on failure.  A failed write is
      rolled back and raises {!Append_rolled_back} exactly like
      {!append_sync} — the log is intact, no member committed.  A failed
      fsync escapes raw and the log must be treated as suspect
      (any prefix of the group may be durable). *)

  val discard_group : t -> unit
  (** Drop all staged frames without writing them. *)

  val append_raw_frames : t -> string -> count:int -> unit
  (** Append bytes that are already valid frames ([count] of them),
      e.g. a byte range copied out of another log of the same
      fingerprint.  Used by the fuzzy checkpoint to carry the
      concurrently-committed tail into the new generation without
      re-encoding it. *)

  val sync : t -> unit
  (** Force everything appended so far — the commit point. *)

  val append_sync : t -> string -> int
  (** One framed entry, one write, one fsync (§3); returns its index.
      On write failure, attempts to roll the file back and raises
      {!Append_rolled_back} on success (see above).  Raises
      [Invalid_argument] while frames are staged for a group (see
      {!stage}): it would land on disk before them. *)

  val entries : t -> int
  val length : t -> int
  (** Current file length in bytes (header included). *)

  val close : t -> unit
end

module Reader : sig
  type policy =
    | Stop_at_damage
        (** Normal restart: the first truncated, torn or corrupt entry
            ends the replay; it and everything after are discarded. *)
    | Skip_damaged
        (** Hard-error recovery: a damaged entry whose length field is
            still readable is skipped and replay continues. *)

  type entry = { index : int; payload : string; offset : int }
  (** [index] counts valid entries from 0; [offset] is the byte
      position of the entry's frame in the file. *)

  type outcome = {
    entries_read : int;
    skipped : int;  (** damaged entries skipped under [Skip_damaged] *)
    valid_length : int;
        (** end of the last byte that replay accepted; the tail beyond
            this must be truncated before appending resumes *)
    stopped_early : string option;
        (** reason replay ended before the end of file, if it did *)
    entries_beyond_damage : int;
        (** under [Stop_at_damage], the number of {e valid} entries
            found after the damaged one (probed when the damaged
            entry's extent is known).  Zero means the damage is a torn
            tail from a crash, safe to truncate; non-zero means
            interior media damage — committed history would be lost by
            truncating, so the caller must escalate (skip-damaged
            policy, previous generation, or a replica) *)
    damage : (int * string) list;
        (** byte offset and reason of every damaged entry encountered:
            each one skipped under [Skip_damaged], or the stopping one
            under [Stop_at_damage].  This is what the scrubber reports,
            so operators see {e where} the media is sick. *)
  }

  val fold :
    Sdb_storage.Fs.t -> string -> fingerprint:string -> policy:policy ->
    init:'acc -> f:('acc -> entry -> 'acc) -> ('acc * outcome, error) result
  (** Replay the log in order.  Damage never escapes as an exception:
      it is reflected in [outcome] per [policy]. *)

  val count_entries :
    Sdb_storage.Fs.t -> string -> fingerprint:string -> (int * outcome, error) result
end
