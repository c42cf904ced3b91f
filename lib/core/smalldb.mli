(** The main-memory database engine with checkpoint + redo log.

    This is the paper's design (§3): the database is an ordinary typed
    data structure in (virtual) memory; its disk counterpart is a
    checkpoint of some previous consistent state plus a log recording
    each subsequent update.  Enquiries touch only memory.  An update
    (1) verifies its preconditions against the in-memory state,
    (2) records its parameters as a log entry — one disk write, the
    commit point — and (3) applies itself to the in-memory state: the
    state is persistent, so [apply] builds the next version before the
    log write, and step (3) is one store of the root.  Restart loads
    the checkpoint and replays the log.

    Concurrency follows the paper's three-mode locking: enquiries hold
    a shared lock; an update holds the update lock until its entry is
    durable — so enquiries keep running during the disk write — and
    upgrades to exclusive only for step (3).  A checkpoint holds the
    update lock only briefly, twice: to pin a snapshot of the state,
    and to hand the pickled snapshot over ({!Make.checkpoint}).

    Instantiate {!Make} with an application: its state and update
    types, their pickles, and the (total, deterministic) [apply]
    function.  An [apply] that raises fails its update before the
    commit point, with nothing logged; still, verify preconditions
    with {!Make.update_checked}, which can refuse with a value. *)

module type APP = sig
  type state
  type update

  val name : string
  (** Recorded in checkpoint metadata; distinguishes stores. *)

  val codec_state : state Sdb_pickle.Pickle.t
  val codec_update : update Sdb_pickle.Pickle.t

  val init : unit -> state
  (** The state of a freshly created (empty) database. *)

  val apply : state -> update -> state
  (** Total and deterministic: replaying the same updates from the same
      state must rebuild the same state.  Never mutates its argument:
      the state is persistent (path-copied, like [Ns_data.pnode] or a
      [Map]), so a root taken at one LSN stays a consistent snapshot —
      checkpoints pickle it with updates running, and the lock-free
      read path shares it with other domains. *)
end

(** When the engine checkpoints on its own, checked after each commit.

    The committing updater pins the snapshot {!Make.checkpoint} pins,
    hands the pickle to a fresh domain (at most one in flight per
    engine; it never touches the file system) and returns.  The first
    later commit or {!Make.close} that finds it finished installs it
    through {!Make.checkpoint}'s hand-over, unless a checkpoint or scrub
    repair superseded it. *)
type checkpoint_policy =
  | Manual  (** only explicit {!Make.checkpoint} calls *)
  | Every_n_updates of int
  | Log_bytes_exceeds of int
      (** checkpoint when the log file outgrows this size *)

type config = {
  retain_previous : bool;
      (** keep one previous checkpoint + log for hard-error recovery
          (§4): when the current checkpoint is unreadable, open loads
          the previous checkpoint, replays the previous log up to the
          current log's base LSN (the entries from there on were carried
          into the current log), then replays the current log.  Costs
          disk space, nothing else *)
  policy : checkpoint_policy;
  log_recovery : [ `Stop_at_damage | `Skip_damaged ];
      (** [`Skip_damaged] is the §4 option of ignoring just a damaged
          log entry; sound only if the application's updates are
          independent *)
  archive_logs : bool;
      (** keep superseded logs as [archive-logfile<N>] — §4's complete
          audit trail, consumed through {!Make.History}.  An archived
          log ends with the tail its successor starts with; the next
          log's base LSN says where *)
  group_commit : bool;
      (** commit concurrent updates ({!Make.update},
          {!Make.update_checked}, {!Make.update_batch}) as a group
          sharing one log write and one fsync (DESIGN.md §4d).
          Identical durability and failure semantics per update, but a
          raising [App.apply] fails its whole group; throughput under
          concurrent updaters is no longer capped at
          1/fsync-latency.  A group leader lingers for the callers
          expected back: those whose last gap between a commit
          returning and their next commit was within one log write and
          fsync, each until one log time after its return and never
          past 2 ms; a lone updater, or callers that pause longer,
          never make it linger.  The leader checks its members'
          preconditions in stage order, each against the state with
          every earlier update applied, on its own thread under the
          update lock: a slow precondition holds up its whole group.
          Off (the default), every update is a group of one: the
          paper's protocol *)
  read_path : [ `Locked | `Epoch ];
      (** Both routes read the same root: the state and its LSN as one
          immutable record in an [Atomic.t], which the writer replaces
          once per committed group inside its Exclusive window, so
          versions appear in commit order.  [`Locked] (the default):
          every enquiry loads the root holding the Vlock in Shared
          mode — the paper's protocol, and the baseline.  [`Epoch]:
          enquiries load it with no lock traffic at all.  A displaced
          version lives on for exactly as long as some reader still
          holds it: the GC reclaims it, nothing else does.  WAL, group
          commit, checkpointing and replication are the same on both
          routes; the fsync remains the commit point, and a version is
          published only after it commits. *)
}

val default_config : config
(** [retain_previous = false], [Manual], [`Stop_at_damage],
    [archive_logs = false], [group_commit = false],
    [read_path = `Locked]. *)

(** Cumulative per-phase timings (seconds) backing the E2/E3/E4 cost
    breakdowns; maintained with two clock reads per phase. *)
type phase_times = {
  verify_s : float;  (** precondition evaluation (explore) *)
  pickle_s : float;  (** update-parameter pickling *)
  log_s : float;  (** log append + fsync *)
  apply_s : float;  (** in-memory mutation *)
  ckpt_pickle_s : float;
      (** checkpoint pickling, on whichever thread or domain ran it, no
          lock held *)
  ckpt_write_s : float;
      (** checkpoint install: file write, log hand-over and switch; for
          a background pickle, not the wait before its install *)
  restore_s : float;  (** checkpoint read + unpickle at open *)
  replay_s : float;  (** log replay at open *)
}

type recovery_info = {
  replayed : int;  (** log entries re-applied at open *)
  skipped_damaged : int;
  log_tail_discarded : bool;
      (** a torn/partial trailing entry was found and dropped *)
  used_previous_generation : bool;
  completed_switch : bool;  (** finished a crashed checkpoint install *)
  removed_files : string list;
}

type stats = {
  generation : int;  (** current checkpoint version number *)
  lsn : int;  (** total updates committed over the store's lifetime *)
  updates_committed : int;  (** since this open *)
  checkpoints_written : int;  (** since this open *)
  log_entries : int;
  log_bytes : int;
  phase : phase_times;
  recovery : recovery_info;
  background_checkpoint : [ `Idle | `Pickling | `Ready ];
      (** the policy's background pickle: none, running, or finished
          and waiting for the next commit or close to install it *)
}

exception Poisoned
(** The instance observed a failure at or after a commit point (the log
    fsync failed with an unknown number of bytes already durable — the
    fsyncgate rule: a failed fsync is never retried — a failed log
    write could not be rolled back, or a checkpoint install failed
    after its switch); memory may disagree with disk, so every
    subsequent operation refuses.  Re-open the store to recover. *)

exception Closed

exception Degraded of string
(** The engine is in read-only mode after running out of disk space:
    the failing log append was all-or-nothing, so nothing committed and
    memory still equals disk — enquiries keep being served, updates
    raise this.  The engine exits automatically: once a backoff timer
    expires, the next update attempt first tries a checkpoint, which
    resets the log to empty and deletes the superseded generation (the
    only operation in this design that reclaims space).  See DESIGN.md
    §4c for the full failure taxonomy. *)

type health = [ `Healthy | `Degraded of string | `Poisoned ]

type scrub_finding = {
  file : string;  (** store-relative file name *)
  offset : int;
      (** byte offset of the damage ([-1] for whole-state findings such
          as a digest mismatch) *)
  reason : string;
}

type scrub_report = {
  scanned_files : string list;
  findings : scrub_finding list;
  replay_consistent : bool;
      (** the checkpoint decoded, the log replayed cleanly into it up
          to the in-memory LSN, and (when a digest was supplied) the
          replayed state digests equal to memory *)
  repaired : bool;  (** a fresh generation was written over the damage *)
  scrub_duration_s : float;
}

module Make (App : APP) : sig
  type t

  val open_ : ?config:config -> Sdb_storage.Fs.t -> (t, string) result
  (** Open or create the database in [fs]'s directory, running crash
      recovery as needed.  [Error] when the current log's base LSN is
      not its checkpoint's LSN, a log is in a format this build does
      not read (a version-1 [SDBWAL1] log), or [App.apply] raises on a
      logged entry (the error names the log and the entry's LSN). *)

  val open_exn : ?config:config -> Sdb_storage.Fs.t -> t

  (** {2 Restore from a replica (§4)}

      A replica's state moves in the store's own format: the bytes of
      a checkpoint file, stamped with the LSN they reflect. *)

  val image : t -> int * string
  (** [(lsn, bytes)]: exactly the bytes a checkpoint of the current
      version would hold, and the LSN of that version.  The version is
      pinned by one read (as {!query_with_lsn}); the pickle runs with
      no lock held. *)

  val install :
    ?config:config -> Sdb_storage.Fs.t -> lsn:int -> string -> (t, string) result
  (** Make an empty store hold an {!image} taken at [lsn], then open
      it: write the bytes as [checkpoint0], create an empty [logfile0]
      whose entries start at [lsn], commit version 0 — the same first
      generation {!open_} writes for a fresh store — and {!open_}.
      The opened store reports LSN [lsn], so updates committed after
      the image keep their numbers.  [Error] when the store is not
      empty (nothing is written), or when the installed generation
      does not open (an image of another application, or one whose
      LSN is not [lsn]; the store then holds the refused generation).
      A crash before the commit leaves an empty store; after it, the
      image at [lsn].  File-system failures raise. *)

  val query : t -> (App.state -> 'a) -> 'a
  (** Run an enquiry under the shared lock.  The function must not
      mutate the state and must not call back into this [t] (the lock
      is not re-entrant: a nested acquire can deadlock against a
      pending upgrade). *)

  val query_with_lsn : t -> (App.state -> 'a) -> 'a * int
  (** Like {!query} but also returns the LSN the answer reflects, read
      under the same lock hold — the consistent (snapshot, position)
      pairs replication is built from. *)

  val update : t -> App.update -> unit
  (** Commit and apply one update: one disk write. *)

  val update_checked :
    t -> precondition:(App.state -> (unit, 'e) result) -> App.update ->
    (unit, 'e) result
  (** The paper's three-step update: the precondition runs under the
      update lock before anything is logged; if it fails, the database
      is untouched and no disk write happens.  It sees every earlier
      update applied, in both [group_commit] modes.  With group commit
      the update joins a group like any other, and the precondition
      runs on the group leader's thread, under the update lock, while
      the leader folds the group: it holds up the whole group while it
      runs.  A failing or raising precondition leaves only its own
      update out of the group, and answers once the group's log write
      has succeeded: it may have seen updates staged before it.  If the
      group fails, this update fails with the group's exception.

      Exception safety (poison-vs-release, see DESIGN.md): a
      [precondition], pickler or [App.apply] that {e raises}
      propagates to this caller with the lock released and the engine
      untouched and usable — [apply] runs before the log write, so
      nothing reached the disk; a raising [apply] fails its whole
      group.  A log write that fails and is rolled back fails the
      update cleanly ([Degraded] on no-space, the cause otherwise).  A
      failed fsync or an unrestorable write also releases the lock but
      first poisons the engine ({!Poisoned}), because memory and disk
      may now disagree.  A raising subscriber propagates to the caller
      after the update is already durable and applied, with no lock
      held. *)

  val update_batch : t -> App.update list -> unit
  (** One caller, many updates, one member of the commit pipeline: one
      log write and one fsync, all or nothing (§5's "multiple commit
      records in a single log entry" optimisation).  Same
      exception-safety contract as {!update_checked}.  With
      [config.group_commit] the batch joins the forming group: its
      entries stay contiguous in the log and share the group's one
      fsync. *)

  val checkpoint : t -> unit
  (** Write exactly one new generation, without excluding updates while
      the state is pickled (lifting §7's first availability limit, "the
      time required for making a checkpoint (when updates are
      excluded)"): pin the state root, LSN and log offset under a brief
      update lock; pickle and write the checkpoint file with no lock
      held; then, under a brief update lock, start the new log with
      that LSN as its base, copy in the entries committed meanwhile,
      and commit the switch.  A policy pickle, finished or not, is
      superseded and dropped.

      Runs out of disk space cleanly: {!Sdb_storage.Fs.No_space} before
      the commit point scraps the partial new generation and leaves the
      engine fully usable on the old one (no poison).  A successful
      checkpoint also exits {!Degraded} mode, since the fresh log is
      what reclaims space. *)

  val stats : t -> stats

  val health : t -> health
  (** Never raises (usable on a poisoned instance). *)

  (** {2 Integrity scrubbing}

      §4 assumes hard errors are {e noticed}; the scrubber notices them
      online instead of at the next restart. *)

  val scrub :
    ?repair:bool -> ?digest:(App.state -> string) -> t -> scrub_report
  (** Re-read the current (and retained previous) checkpoint + log and
      verify them end to end: a page-wise media scan of every file, a
      CRC check of every log frame, and a shadow replay of checkpoint +
      log cross-checked against the live state.  The verification
      holds the update lock: enquiries keep running, updates and
      checkpoints wait.

      [digest] enables the memory cross-check; it must be {e canonical}
      (equal states give equal strings — a plain pickle of a hash table
      is not, since its iteration order depends on insertion history).

      With [repair:true] and damage found, the engine self-repairs by
      writing a fresh checkpoint from the known-good in-memory state
      (§4's consistency restoration, automated) and removing the
      damaged files; a subsequent scrub is clean.  Repair is skipped
      (report says [repaired = false]) when the disk is too full to
      write the new generation.

      Raises {!Poisoned}/{!Closed}; never {!Degraded} (a degraded
      engine can and should be scrubbed — a successful repair
      checkpoint also exits degraded mode). *)

  val start_scrubber :
    ?interval:float -> ?repair:bool -> ?digest:(App.state -> string) -> t ->
    unit
  (** Run {!scrub} on a background thread every [interval] seconds
      (default 60, [repair] defaults to [true]).  The thread stops
      itself when the instance is closed or poisoned; {!close} also
      stops it.  Raises [Invalid_argument] if already running. *)

  (** {2 Update subscriptions}

      Observers of the committed update stream — what replication's
      eager propagation (§4) hangs off, without wrapping every update
      call site. *)

  type subscription

  val subscribe : t -> (int -> App.update -> unit) -> subscription
  (** The callback runs after each commit and its in-memory apply, with
      no engine lock held, in commit order, receiving the update's LSN.
      It may query this [t] but must not update it (re-entrant updates
      would reorder the stream it is observing).  An exception from the
      callback propagates to the updater — the update itself is already
      durable and applied. *)

  val unsubscribe : t -> subscription -> unit

  val fold_log : t -> init:'acc -> f:('acc -> int -> App.update -> 'acc) -> 'acc
  (** Audit trail (§4): fold over the current generation's committed
      updates with their LSNs. *)

  val log_suffix : t -> from:int -> (int * App.update) list option
  (** The committed updates with LSN ≥ [from], if the current
      generation's log still covers that point; [None] once a
      checkpoint has absorbed it (the caller must fall back to a full
      state transfer).  Used by replica catch-up. *)

  (** The complete audit trail (§4: "the log files form a complete
      audit trail for the database, and could be retained if desired").
      Requires the store to have run with [archive_logs = true] since
      creation, so that every update since LSN 0 is still on disk.  Each
      archived log is read only below the next log's base LSN: its last
      entries were carried into that log by the checkpoint that
      archived it, and are read from there, once. *)
  module History : sig
    val available : t -> bool
    (** True when the archive is contiguous from LSN 0 to the current
        log (i.e. no history has been deleted). *)

    val fold :
      t -> init:'acc -> f:('acc -> int -> App.update -> 'acc) ->
      ('acc, string) result
    (** Every committed update of the store's lifetime, in LSN order,
        across all archived logs and the current one. *)

    val state_at : t -> lsn:int -> (App.state, string) result
    (** Reconstruct the database as it stood after the first [lsn]
        updates — time travel by replaying the audit trail into a fresh
        [App.init] state. *)
  end

  val close : t -> unit
  (** Close file handles.  No checkpoint is written, except that a
      finished background pickle of the policy is installed first; one
      still running is abandoned, and close does not wait for it.  The
      log is the authoritative tail, exactly as after a crash. *)
end
