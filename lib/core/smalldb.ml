module Pickle = Sdb_pickle.Pickle
module Fs = Sdb_storage.Fs
module Wal = Sdb_wal.Wal
module Vlock = Sdb_vlock.Vlock
module Store = Sdb_checkpoint.Checkpoint_store
module Commit_core = Sdb_commit.Commit_core
module Commit = Commit_core.Make (Commit_core.Thread_mu) (Vlock)
module Metrics = Sdb_obs.Metrics
module Trace = Sdb_obs.Trace

(* Engine-wide metrics.  Shared across every [Make] instance: series
   are process-level, like the registry itself.  The span taxonomy
   (update.verify/join/log/apply/notify, checkpoint,
   recovery.restore/replay) is a
   public interface documented in DESIGN.md. *)

let m_updates =
  Metrics.counter "sdb_updates_total" ~help:"Updates committed by the engine."

let m_group_size =
  Metrics.histogram "sdb_group_commit_size"
    ~help:"Updates committed per group flush (amortization factor of the \
           shared fsync; sdb_wal_syncs_total / sdb_updates_total is the \
           fsyncs-per-update ratio)."

let phase_hist phase =
  Metrics.histogram "sdb_update_phase_seconds"
    ~help:"Per-update phase latency (the paper's E2 breakdown)."
    ~labels:[ ("phase", phase) ]

let m_phase_verify = phase_hist "verify"
let m_phase_pickle = phase_hist "pickle"
let m_phase_log = phase_hist "log"
let m_phase_apply = phase_hist "apply"

let m_checkpoints =
  Metrics.counter "sdb_checkpoints_total" ~help:"Checkpoints written."

let ckpt_hist phase =
  Metrics.histogram "sdb_checkpoint_phase_seconds"
    ~help:"Checkpoint phase latency." ~labels:[ ("phase", phase) ]

let m_ckpt_pickle = ckpt_hist "pickle"
let m_ckpt_write = ckpt_hist "write"

let m_recoveries =
  Metrics.counter "sdb_recoveries_total" ~help:"Successful restarts from disk."

let recovery_hist phase =
  Metrics.histogram "sdb_recovery_phase_seconds"
    ~help:"Recovery phase latency (the paper's E4 breakdown)."
    ~labels:[ ("phase", phase) ]

let m_recovery_restore = recovery_hist "restore"
let m_recovery_replay = recovery_hist "replay"

let m_scrub_runs =
  Metrics.counter "sdb_scrub_runs_total" ~help:"Integrity scrubs completed."

let m_scrub_damage =
  Metrics.counter "sdb_scrub_damage_found_total"
    ~help:"Damaged ranges found by scrubs."

let m_scrub_repairs =
  Metrics.counter "sdb_scrub_repairs_total"
    ~help:"Self-repairs: fresh checkpoints written over detected damage."

let m_degraded =
  Metrics.gauge "sdb_degraded"
    ~help:"1 while the engine is in degraded (read-only) mode."

let m_degraded_recoveries =
  Metrics.counter "sdb_degraded_recoveries_total"
    ~help:"Automatic exits from degraded mode (space reclaimed)."

(* Concurrency-sanitizer exposure (pull-style: the sanitizer keeps its
   own tallies so the zero-overhead-when-disabled property holds; we
   bridge deltas into the registry only when someone renders). *)
let () =
  let m_san_checks =
    Metrics.counter "sdb_san_checks_total"
      ~help:"Lock-discipline checks processed by the sanitizer."
  and m_san_violations =
    Metrics.counter "sdb_san_violations_total"
      ~help:"Lock-discipline violations the sanitizer raised."
  and m_san_depth =
    Metrics.gauge "sdb_san_max_lock_depth"
      ~help:"Deepest per-thread lock hold stack the sanitizer observed."
  in
  let pushed_checks = ref 0 and pushed_violations = ref 0 in
  Metrics.register_collector ~name:"sdb_check" (fun () ->
      let s = Sdb_check.stats () in
      Metrics.add m_san_checks (max 0 (s.Sdb_check.checks - !pushed_checks));
      pushed_checks := max !pushed_checks s.Sdb_check.checks;
      Metrics.add m_san_violations
        (max 0 (s.Sdb_check.violations - !pushed_violations));
      pushed_violations := max !pushed_violations s.Sdb_check.violations;
      Metrics.set_gauge m_san_depth (float_of_int s.Sdb_check.max_lock_depth))

module type APP = sig
  type state
  type update

  val name : string
  val codec_state : state Pickle.t
  val codec_update : update Pickle.t
  val init : unit -> state
  val apply : state -> update -> state
end

type checkpoint_policy =
  | Manual
  | Every_n_updates of int
  | Log_bytes_exceeds of int

type config = {
  retain_previous : bool;
  policy : checkpoint_policy;
  log_recovery : [ `Stop_at_damage | `Skip_damaged ];
  archive_logs : bool;
  group_commit : bool;
  read_path : [ `Locked | `Epoch ];
}

let default_config =
  {
    retain_previous = false;
    policy = Manual;
    log_recovery = `Stop_at_damage;
    archive_logs = false;
    group_commit = false;
    read_path = `Locked;
  }

type phase_times = {
  verify_s : float;
  pickle_s : float;
  log_s : float;
  apply_s : float;
  ckpt_pickle_s : float;
  ckpt_write_s : float;
  restore_s : float;
  replay_s : float;
}

type recovery_info = {
  replayed : int;
  skipped_damaged : int;
  log_tail_discarded : bool;
  used_previous_generation : bool;
  completed_switch : bool;
  removed_files : string list;
}

type stats = {
  generation : int;
  lsn : int;
  updates_committed : int;
  checkpoints_written : int;
  log_entries : int;
  log_bytes : int;
  phase : phase_times;
  recovery : recovery_info;
  background_checkpoint : [ `Idle | `Pickling | `Ready ];
}

exception Poisoned
exception Closed

exception Degraded of string

type health = [ `Healthy | `Degraded of string | `Poisoned ]

type scrub_finding = { file : string; offset : int; reason : string }

type scrub_report = {
  scanned_files : string list;
  findings : scrub_finding list;
  replay_consistent : bool;
  repaired : bool;
  scrub_duration_s : float;
}

(* Backoff for the two space-reclaim retry loops (degraded exit and the
   auto-checkpoint): doubles per failed attempt, capped. *)
let backoff_initial = 0.02
let backoff_max = 5.0

let fresh_recovery =
  {
    replayed = 0;
    skipped_damaged = 0;
    log_tail_discarded = false;
    used_previous_generation = false;
    completed_switch = false;
    removed_files = [];
  }

module Make (App : APP) = struct
  type meta = { app : string; base_lsn : int }

  let codec_meta =
    Pickle.record2 "smalldb.checkpoint_meta"
      (Pickle.field "app" Pickle.string (fun m -> m.app))
      (Pickle.field "base_lsn" Pickle.int (fun m -> m.base_lsn))
      (fun app base_lsn -> { app; base_lsn })

  let codec_blob = Pickle.pair codec_meta App.codec_state
  let update_fp = Pickle.fingerprint App.codec_update

  (* One commit-pipeline member: an update (or a whole batch), pickled
     under the Update lock, and the precondition the fold checks it by,
     if any, with the request id of the thread that committed it: the
     fold may run on another member's thread. *)
  type member = {
    updates : App.update list;
    payloads : string list;
    holds : (App.state -> bool) option;
    req : string option;  (* the caller's request id, for its verify span *)
  }

  (* Where a checkpoint's snapshot sits in the log: the entries past
     [at_off] of generation [at_generation]'s log, [at_lsn] onwards, are
     the tail its hand-over carries. *)
  type mark = { at_generation : int; at_lsn : int; at_off : int }

  (* A policy checkpoint pickling on its own domain.  The domain only
     pickles; its last act stores the blob with its pickle start and end
     times, or the exception it raised, in [result].  The install reads
     that slot and never joins the domain: a terminating domain first
     finishes its share of the current major GC cycle, and a commit
     would wait for it. *)
  type pickling = {
    mark : mark;
    result : (string * float * float, exn * Printexc.raw_backtrace) result option Atomic.t;
  }

  (* A version of the database: the state after the first [lsn]
     updates. *)
  type root = { state : App.state; lsn : int }

  type t = {
    fs : Fs.t;
    config : config;
    lock : Vlock.t;
    ckpt_mutex : Sdb_check.Mu.t;  (* serializes checkpoints and scrubs *)
    commit : member Commit.t;
    (* reusable pickle scratch; guarded by the Update lock *)
    pickle_buf : Buffer.t;
    (* The current version, replaced by one store in each commit's
       Exclusive window.  The `Locked read route loads it under Shared,
       the `Epoch route with no lock; the Update holder reads it as the
       version nothing else can replace.  The GC keeps a displaced root
       alive for as long as a reader holds it. *)
    root : root Atomic.t;
    mutable wal : Wal.Writer.t;
    mutable generation : int;
    mutable committed : int;
    mutable since_ckpt : int;  (* updates since the last checkpoint *)
    mutable ckpts : int;
    mutable closed : bool;
    mutable poisoned : bool;
    mutable degraded_reason : string option;
    mutable degraded_retry_at : float;
    mutable degraded_backoff : float;
    mutable auto_ckpt_retry_at : float;
    mutable auto_ckpt_backoff : float;
    mutable pickling : pickling option;  (* at most one; set under ckpt_mutex *)
    mutable scrub_stop : bool;
    mutable scrub_thread : Thread.t option;
    mutable recovery : recovery_info;
    mutable phase : phase_times;  (* cumulative *)
    subs_mutex : Sdb_check.Mu.t;
    mutable subscribers : (int * (int -> App.update -> unit)) list;
    mutable next_sub : int;
  }

  type subscription = int

  let now = Unix.gettimeofday

  let check_usable t =
    if t.closed then raise Closed;
    if t.poisoned then raise Poisoned

  let current t = Atomic.get t.root

  let health t : health =
    if t.poisoned then `Poisoned
    else match t.degraded_reason with
      | Some reason -> `Degraded reason
      | None -> `Healthy

  let enter_degraded t reason =
    if t.degraded_reason = None then begin
      t.degraded_reason <- Some reason;
      t.degraded_backoff <- backoff_initial;
      t.degraded_retry_at <- Unix.gettimeofday () +. backoff_initial;
      Metrics.set_gauge m_degraded 1.
    end

  (* ---------------------------------------------------------------- *)
  (* Opening                                                           *)

  let make fs config state wal generation lsn recovery =
    let lock = Vlock.create ~name:App.name () in
    {
      fs;
      config;
      lock;
      (* `Vlock kind: the checkpoint token only serializes checkpointers
         and scrubbers against each other and is held across deliberate
         I/O (the pickle and the hand-over's WAL tail blit), so it is exempt
         from the no-blocking-under-mutex rule — at runtime (the
         sanitizer's I/O assert filters on kind) and statically. *)
      ckpt_mutex = Sdb_check.Mu.make ~kind:`Vlock ("smalldb.ckpt:" ^ App.name);
      commit = Commit.create ~name:App.name ~grouped:config.group_commit lock;
      pickle_buf = Buffer.create 256;
      root = Atomic.make { state; lsn };
      wal;
      generation;
      committed = 0;
      since_ckpt = 0;
      ckpts = 0;
      closed = false;
      poisoned = false;
      degraded_reason = None;
      degraded_retry_at = 0.;
      degraded_backoff = backoff_initial;
      auto_ckpt_retry_at = 0.;
      auto_ckpt_backoff = backoff_initial;
      pickling = None;
      scrub_stop = false;
      scrub_thread = None;
      recovery;
      phase =
        {
          verify_s = 0.;
          pickle_s = 0.;
          log_s = 0.;
          apply_s = 0.;
          ckpt_pickle_s = 0.;
          ckpt_write_s = 0.;
          restore_s = 0.;
          replay_s = 0.;
        };
      subs_mutex = Sdb_check.Mu.make ("smalldb.subs:" ^ App.name);
      subscribers = [];
      next_sub = 0;
    }

  let checkpoint_blob ~lsn state =
    Pickle.to_string codec_blob ({ app = App.name; base_lsn = lsn }, state)

  (* The first generation of an empty store: [blob] as checkpoint0, an
     empty logfile0 whose entries start at [lsn], and the commit of
     version 0.  Returns the log's writer. *)
  let write_first_generation fs config ~lsn blob =
    Store.write_checkpoint fs ~version:0 blob;
    let wal = Wal.Writer.create fs (Store.log_file 0) ~fingerprint:update_fp ~base_lsn:lsn in
    Store.commit ~archive_logs:config.archive_logs
      ~retain_previous:config.retain_previous ~old_version:None ~new_version:0 fs;
    wal

  let create_fresh fs config =
    let state = App.init () in
    let wal = write_first_generation fs config ~lsn:0 (checkpoint_blob ~lsn:0 state) in
    Ok (make fs config state wal 0 0 fresh_recovery)

  let load_checkpoint fs file =
    match Fs.read_file fs file with
    | exception Fs.Read_error { reason; _ } ->
      Error (Printf.sprintf "checkpoint %s unreadable: %s" file reason)
    | blob -> (
      match Pickle.of_string codec_blob blob with
      | Error m -> Error (Printf.sprintf "checkpoint %s: %s" file m)
      | Ok (meta, state) ->
        if not (String.equal meta.app App.name) then
          Error
            (Printf.sprintf "checkpoint %s belongs to application %S, not %S" file
               meta.app App.name)
        else Ok (meta, state))

  (* Fold [f acc lsn update] over the entries of [log] below LSN [upto],
     from [init] at [lsn].  The log's header must record [lsn] as its
     base: a log that does not start where the state folded so far ends
     belongs to another generation.  Entries from [upto] on were carried
     into the next log and are not even decoded. *)
  let log_base fs log =
    match Wal.read_header fs log with
    | Ok h -> Ok h.Wal.base_lsn
    | Error e -> Error (Format.asprintf "log %s: %a" log Wal.pp_error e)

  let fold_from fs log ~policy ~lsn ~upto ~init ~f =
    match log_base fs log with
    | Error e -> Error e
    | Ok base when base <> lsn ->
      Error
        (Printf.sprintf "log %s starts at lsn %d, but the state before it ends at lsn %d"
           log base lsn)
    | Ok _ -> (
      match
        Wal.Reader.fold fs log ~fingerprint:update_fp ~policy ~init:(init, lsn)
          ~f:(fun (acc, lsn) (entry : Wal.Reader.entry) ->
            if lsn >= upto then (acc, lsn)
            else (f acc lsn (Pickle.decode App.codec_update entry.payload), lsn + 1))
      with
      | Error e -> Error (Format.asprintf "log %s: %a" log Wal.pp_error e)
      | Ok ((acc, lsn), outcome) -> Ok (acc, lsn, outcome)
      | exception Pickle.Error m ->
        Error (Printf.sprintf "log %s: undecodable committed entry: %s" log m))

  let wal_policy = function
    | `Stop_at_damage -> Wal.Reader.Stop_at_damage
    | `Skip_damaged -> Wal.Reader.Skip_damaged

  exception Unappliable of int * exn

  (* Replay one log over (state, lsn).  An entry [App.apply] rejects is
     an error naming it, not an exception out of [open_].  Valid
     committed entries beyond damage are a hard error (§4), not a torn
     tail: truncating would silently lose them, so escalate instead of
     guessing. *)
  let replay fs config ~log ~state ~lsn ~upto =
    match
      fold_from fs log ~policy:(wal_policy config.log_recovery) ~lsn ~upto ~init:state
        ~f:(fun state lsn u ->
          try App.apply state u with e -> raise (Unappliable (lsn, e)))
    with
    | exception Unappliable (lsn, e) ->
      Error
        (Printf.sprintf "log %s: entry at lsn %d does not apply: %s" log lsn
           (Printexc.to_string e))
    | Ok (_, _, outcome) when outcome.Wal.Reader.entries_beyond_damage > 0 ->
      Error
        (Printf.sprintf
           "log %s: interior damage with %d committed entries beyond it; use \
            Skip_damaged recovery or restore from a replica"
           log outcome.Wal.Reader.entries_beyond_damage)
    | r -> r

  (* The current log starts at its checkpoint's LSN.  When that
     checkpoint is unreadable, the previous generation's checkpoint and
     log stand in for it, the log only below the current log's base:
     the entries from there on were carried into the current log by the
     hand-over, and are replayed from it. *)
  let restore fs config (rcv : Store.recovery) =
    let gen = rcv.Store.current in
    let t0 = now () in
    let via_previous reason =
      match rcv.Store.previous with
      | None -> Error reason
      | Some prev -> (
        match (load_checkpoint fs prev.Store.checkpoint_file, log_base fs gen.Store.log_file) with
        | Error e, _ ->
          Error (Printf.sprintf "%s; previous generation also unusable: %s" reason e)
        | _, Error e -> Error (Printf.sprintf "%s; %s" reason e)
        | Ok (meta, state), Ok upto -> (
          match
            replay fs config ~log:prev.Store.log_file ~state ~lsn:meta.base_lsn ~upto
          with
          | Error e -> Error (Printf.sprintf "%s; previous log: %s" reason e)
          | Ok (_, lsn, _) when lsn <> upto ->
            Error
              (Printf.sprintf "%s; previous log ends at lsn %d, short of lsn %d" reason lsn
                 upto)
          | Ok (state, lsn, _outcome) -> Ok (state, lsn, true)))
    in
    let loaded =
      match load_checkpoint fs gen.Store.checkpoint_file with
      | Ok (meta, state) -> Ok (state, meta.base_lsn, false)
      | Error reason -> via_previous reason
    in
    match loaded with
    | Error e -> Error e
    | Ok (state, lsn, used_previous) -> (
      let t1 = now () in
      match replay fs config ~log:gen.Store.log_file ~state ~lsn ~upto:max_int with
      | Error e -> Error e
      | Ok (state, lsn, outcome) ->
        let t2 = now () in
        (* Skipped damaged entries have no LSN: the writer counts the
           valid entries, so the log's base is [lsn] minus that count. *)
        let wal =
          Wal.Writer.reopen fs gen.Store.log_file ~fingerprint:update_fp
            ~valid_length:outcome.Wal.Reader.valid_length
            ~entries:outcome.Wal.Reader.entries_read
        in
        let recovery =
          {
            replayed = outcome.Wal.Reader.entries_read;
            skipped_damaged = outcome.Wal.Reader.skipped;
            log_tail_discarded = outcome.Wal.Reader.stopped_early <> None;
            used_previous_generation = used_previous;
            completed_switch = rcv.Store.completed_switch;
            removed_files = rcv.Store.removed_files;
          }
        in
        let t = make fs config state wal gen.Store.version lsn recovery in
        (* Replayed log entries are not covered by the checkpoint we
           restored from: they count toward the next policy boundary. *)
        t.since_ckpt <- outcome.Wal.Reader.entries_read + outcome.Wal.Reader.skipped;
        t.phase <- { t.phase with restore_s = t1 -. t0; replay_s = t2 -. t1 };
        Metrics.incr m_recoveries;
        Metrics.observe m_recovery_restore (t1 -. t0);
        Metrics.observe m_recovery_replay (t2 -. t1);
        if Trace.active () then begin
          let attrs = [ ("app", App.name) ] in
          Trace.span "recovery.restore" ~attrs ~start_s:t0 ~dur_s:(t1 -. t0);
          Trace.span "recovery.replay"
            ~attrs:(attrs @ [ ("replayed", string_of_int recovery.replayed) ])
            ~start_s:t1 ~dur_s:(t2 -. t1)
        end;
        Ok t)

  (* ---------------------------------------------------------------- *)
  (* Checkpointing                                                     *)

  (* Remove the partial files of a generation whose switch never
     committed.  Failures are swallowed: recovery deletes the same
     orphans at the next open. *)
  let scrap_partial_generation t next =
    List.iter
      (fun f -> try t.fs.Fs.remove f with Fs.Io_error _ -> ())
      [ Store.newversion_file; Store.checkpoint_file next; Store.log_file next ]

  (* Called on any successful checkpoint: the fresh, empty log is the
     one operation in this design that reclaims disk space, so it both
     resets the auto-checkpoint backoff and exits degraded mode. *)
  let note_space_reclaimed t =
    t.auto_ckpt_backoff <- backoff_initial;
    t.auto_ckpt_retry_at <- 0.;
    if t.degraded_reason <> None then begin
      t.degraded_reason <- None;
      Metrics.set_gauge m_degraded 0.;
      Metrics.incr m_degraded_recoveries
    end

  (* A checkpoint's snapshot is O(1): the state is persistent, so the
     root taken under one brief Update hold, with its LSN and log
     offset, stays a consistent version however many updates follow. *)
  let mark_locked t =
    let at_lsn = (current t).lsn in
    { at_generation = t.generation; at_lsn; at_off = Wal.Writer.length t.wal }
  [@@sdb.requires update]

  (* Copy into the new generation's log [wal'] the frames committed
     since [mark] — raw frames, no decoding. *)
  let carry_tail t mark wal' =
    let tail_len = Wal.Writer.length t.wal - mark.at_off in
    if tail_len > 0 then begin
      let r = t.fs.Fs.open_reader (Store.log_file t.generation) in
      Fun.protect
        ~finally:(fun () -> r.Fs.r_close ())
        (fun () ->
          r.Fs.r_seek mark.at_off;
          let buf = Bytes.create tail_len in
          let rec fill got =
            if got < tail_len then begin
              let n = r.Fs.r_read buf got (tail_len - got) in
              if n = 0 then Fs.io_fail ~op:"read" "checkpoint hand-over: short tail read";
              fill (got + n)
            end
          in
          fill 0;
          Wal.Writer.append_raw_frames wal' (Bytes.unsafe_to_string buf)
            ~count:((current t).lsn - mark.at_lsn));
      Wal.Writer.sync wal'
    end
  [@@sdb.requires update]

  (* The hand-over of a state pickled at [mark] into [blob], over
     [pickle]'s interval: write generation [next]'s checkpoint file,
     then, under a brief Update hold proportional to the entries
     committed since the mark, start its log at the mark's LSN, carry
     those entries into it, and commit the switch.  A failure before
     the commit point scraps the partial generation and fails just this
     checkpoint, the engine staying on the current one; after it,
     memory and disk may disagree, so the engine poisons.  The write
     phase is timed from here: a background pickle may have finished
     long before its install starts. *)
  let switch_generation t ~kind mark ~pickle:(t0, t1) blob =
    let ti = now () in
    let next = t.generation + 1 in
    let committed = ref false in
    (try
       Store.write_checkpoint t.fs ~version:next blob;
       Vlock.with_lock t.lock Vlock.Update (fun () ->
           (* An engine poisoned since the mark must not carry its
              suspect tail into a committed generation. *)
           check_usable t;
           (* Start the new generation's log before touching the old
              one: any failure up to the commit point leaves the current
              generation intact and appendable. *)
           let wal =
             Wal.Writer.create t.fs (Store.log_file next) ~fingerprint:update_fp
               ~base_lsn:mark.at_lsn
           in
           (try
              carry_tail t mark wal;
              Store.commit ~archive_logs:t.config.archive_logs
                ~retain_previous:t.config.retain_previous
                ~old_version:(Some t.generation) ~new_version:next t.fs
            with e ->
              (try Wal.Writer.close wal with Fs.Io_error _ -> ());
              raise e);
           committed := true;
           (try Wal.Writer.close t.wal with Fs.Io_error _ -> ());
           Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Update
             ~site:"checkpoint.install";
           t.wal <- wal;
           t.generation <- next;
           t.ckpts <- t.ckpts + 1;
           (* a carried tail is not covered by the snapshot just written *)
           t.since_ckpt <- (current t).lsn - mark.at_lsn;
           note_space_reclaimed t)
     with
     | (Fs.No_space _ | Wal.Append_rolled_back _ | Poisoned) as e when not !committed ->
       (* Disk full strictly before the commit point — the [newversion]
          write is all-or-nothing under the [No_space] contract, and a
          rolled-back tail copy touched only the unreferenced new log. *)
       scrap_partial_generation t next;
       raise e
     | e ->
       t.poisoned <- true;
       raise e);
    let t2 = now () in
    let p = t.phase in
    t.phase <-
      {
        p with
        ckpt_pickle_s = p.ckpt_pickle_s +. (t1 -. t0);
        ckpt_write_s = p.ckpt_write_s +. (t2 -. ti);
      };
    Metrics.incr m_checkpoints;
    Metrics.observe m_ckpt_pickle (t1 -. t0);
    Metrics.observe m_ckpt_write (t2 -. ti);
    if Trace.active () then begin
      let attrs =
        [
          ("app", App.name);
          ("kind", match kind with `Manual -> "manual" | `Background -> "background");
          ("generation", string_of_int t.generation);
        ]
      in
      match kind with
      | `Background ->
        (* Two disjoint intervals, only the install on the request
           path; the pickle's timestamps were taken in its domain. *)
        Trace.span "checkpoint.pickle" ~attrs ~start_s:t0 ~dur_s:(t1 -. t0);
        Trace.span "checkpoint.install" ~attrs ~start_s:ti ~dur_s:(t2 -. ti)
      | `Manual -> Trace.span "checkpoint" ~attrs ~start_s:t0 ~dur_s:(t2 -. t0)
    end
  [@@sdb.acquires update]

  (* Under the checkpoint token: the snapshot under a brief Update hold,
     the pickle on this thread with no lock held, then the hand-over. *)
  let write_generation t =
    let state, mark =
      Vlock.with_lock t.lock Vlock.Update (fun () ->
          check_usable t;
          ((current t).state, mark_locked t))
    in
    let t0 = now () in
    let blob = checkpoint_blob ~lsn:mark.at_lsn state in
    switch_generation t ~kind:`Manual mark ~pickle:(t0, now ()) blob
  [@@sdb.acquires update]

  (* Under the checkpoint token: take the policy pickle out of its slot
     if it has finished.  A pickler's exception is re-raised, as a
     pickle on the caller's thread would raise it. *)
  let take_finished t =
    match t.pickling with
    | None -> None
    | Some p -> (
      match Atomic.get p.result with
      | None -> None
      | Some r -> (
        t.pickling <- None;
        match r with
        | Ok (blob, t0, t1) -> Some (p.mark, (t0, t1), blob)
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt))

  (* Install a finished policy pickle, or drop it if the generation
     moved since its snapshot (a scrub repair superseded it).  A pickle
     still running is left alone. *)
  let install_finished t =
    match take_finished t with
    | Some (mark, pickle, blob) when mark.at_generation = t.generation ->
      switch_generation t ~kind:`Background mark ~pickle blob
    | Some _ | None -> ()
  [@@sdb.acquires update]

  (* The domain only pickles: it never touches the file system, the
     metrics or the trace sink. *)
  let spawn_pickle t state mark =
    let result = Atomic.make None in
    let (_ : unit Domain.t) =
      Domain.spawn (fun () ->
          let r =
            match
              let t0 = now () in
              let blob = checkpoint_blob ~lsn:mark.at_lsn state in
              (blob, t0, now ())
            with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          Atomic.set result (Some r))
    in
    t.pickling <- Some { mark; result }

  let pickle_finished p = Option.is_some (Atomic.get p.result)

  let due_for_checkpoint t =
    match t.config.policy with
    | Manual -> false
    (* Count updates since the last checkpoint, not [committed mod n]:
       a batch that jumps over the multiple must still trigger. *)
    | Every_n_updates n -> n > 0 && t.since_ckpt >= n
    | Log_bytes_exceeds limit -> Wal.Writer.length t.wal > limit

  (* Writes exactly one generation.  A finished policy pickle is
     dropped, not installed: this checkpoint supersedes it, as it does
     one still running, which its install will drop. *)
  let checkpoint t =
    check_usable t;
    Sdb_check.Mu.lock t.ckpt_mutex;
    Fun.protect
      ~finally:(fun () -> Sdb_check.Mu.unlock t.ckpt_mutex)
      (fun () ->
        check_usable t;
        ignore (take_finished t : _ option);
        write_generation t)
  [@@sdb.acquires update]

  (* The policy's checkpoint: install a finished pickle, then, when one
     is due and none is in flight, pin a snapshot under Update and hand
     it to a pickling domain.  [due] is re-checked under the locks — the
     members of a group all finish together, and only the first of them
     should checkpoint.  The token is only tried, never waited for: its
     holder installs or supersedes a finished pickle, or else the next
     commit retries, so no committer waits out another's install. *)
  let policy_checkpoint t =
    check_usable t;
    if Sdb_check.Mu.try_lock t.ckpt_mutex then
      Fun.protect
        ~finally:(fun () -> Sdb_check.Mu.unlock t.ckpt_mutex)
        (fun () ->
          check_usable t;
          install_finished t;
          let snapshot =
            Vlock.with_lock t.lock Vlock.Update (fun () ->
                check_usable t;
                if t.pickling = None && due_for_checkpoint t then
                  Some ((current t).state, mark_locked t)
                else None)
          in
          Option.iter (fun (state, mark) -> spawn_pickle t state mark) snapshot)
  [@@sdb.acquires update]

  (* After a commit: install a finished policy pickle, or start the
     policy's next checkpoint when one is due.  Both checks here are
     unlocked hints; [policy_checkpoint] repeats them under the locks. *)
  let maybe_auto_checkpoint t =
    let ready = match t.pickling with Some p -> pickle_finished p | None -> false in
    if
      ready
      || t.pickling = None && due_for_checkpoint t && now () >= t.auto_ckpt_retry_at
    then
      try policy_checkpoint t
      with Fs.No_space _ ->
        (* The update itself committed; the log just could not be
           compacted yet.  Back off and keep running — degraded mode is
           entered only once an append itself no longer fits. *)
        t.auto_ckpt_backoff <- Float.min (t.auto_ckpt_backoff *. 2.) backoff_max;
        t.auto_ckpt_retry_at <- now () +. t.auto_ckpt_backoff

  (* Degraded mode is read-only: enquiries run, updates are refused
     with [Degraded].  Once the backoff timer expires, an update
     attempt first tries the exit path — a checkpoint, the only
     operation in this design that reclaims disk space (it resets the
     log to empty and deletes the superseded generation). *)
  let try_exit_degraded t reason =
    match checkpoint t with
    | () -> () (* [note_space_reclaimed] cleared the flag *)
    | exception Fs.No_space _ ->
      t.degraded_backoff <- Float.min (t.degraded_backoff *. 2.) backoff_max;
      t.degraded_retry_at <- now () +. t.degraded_backoff;
      raise (Degraded reason)

  let check_updatable t =
    check_usable t;
    match t.degraded_reason with
    | None -> ()
    | Some reason ->
      if now () < t.degraded_retry_at then raise (Degraded reason)
      else begin
        try_exit_degraded t reason;
        check_usable t
      end

  let subscribe t f =
    Sdb_check.Mu.with_lock t.subs_mutex (fun () ->
        let id = t.next_sub in
        t.next_sub <- id + 1;
        t.subscribers <- t.subscribers @ [ (id, f) ];
        id)

  let unsubscribe t id =
    Sdb_check.Mu.with_lock t.subs_mutex (fun () ->
        t.subscribers <- List.filter (fun (i, _) -> i <> id) t.subscribers)

  let notify t lsn u =
    let subs = Sdb_check.Mu.with_lock t.subs_mutex (fun () -> t.subscribers) in
    List.iter (fun (_, f) -> f lsn u) subs

  (* ---------------------------------------------------------------- *)
  (* Enquiries and updates                                             *)

  (* Both routes read one root, so state and LSN come from the same
     record; the `Locked route also holds Shared across the enquiry, as
     the paper does.  The `Epoch route allocates nothing of its own. *)
  let read_locked t ~site f =
    Vlock.with_lock t.lock Vlock.Shared (fun () ->
        Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Shared ~site;
        f (current t))
  [@@sdb.acquires shared]

  let query t f =
    check_usable t;
    match t.config.read_path with
    | `Epoch -> f (current t).state
    | `Locked -> read_locked t ~site:"query" (fun r -> f r.state)

  let query_with_lsn t f =
    check_usable t;
    let with_lsn { state; lsn } = (f state, lsn) in
    match t.config.read_path with
    | `Epoch -> with_lsn (current t)
    | `Locked -> read_locked t ~site:"query_with_lsn" with_lsn

  (* ---------------------------------------------------------------- *)
  (* The commit pipeline (§3, §4d)                                     *)

  (* The paper's three steps under the paper's locks: Update for the
     pickles, the fold into the next version (which verifies each
     precondition) and the log write (enquiries keep running),
     Exclusive only for the memory mutation — one store of the root.
     [Commit] sequences them; these are the steps.

     Failures follow one rule (DESIGN.md §4b/§4c): before the commit
     point nothing reached the disk, so the member fails and the engine
     stays usable; at or after it memory and disk may disagree, so the
     engine poisons.  The coordinator always releases the lock and
     wakes every member, so blocked threads observe the failure instead
     of deadlocking. *)

  (* One phase of an update since [t0]: its histogram, its span when
     tracing, and the duration for the cumulative [stats]. *)
  let phase hist ?span ?(attrs = fun () -> []) t0 =
    let d = now () -. t0 in
    Metrics.observe hist d;
    (match span with
    | Some name when Trace.active () ->
      Trace.span name ~attrs:(attrs ()) ~start_s:t0 ~dur_s:d
    | _ -> ());
    d

  let app_attrs () = [ ("app", App.name) ]

  let group_attrs members () =
    [ ("app", App.name); ("group_size", string_of_int (List.length members)) ]

  (* Under Update: the pickles.  A raising pickler propagates with
     nothing staged. *)
  let prepare_member t ?holds updates () =
    Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Update
      ~site:"commit.prepare";
    let t0 = now () in
    (* The scratch buffer is guarded by the Update lock. *)
    let payloads =
      List.map
        (fun u ->
          Buffer.clear t.pickle_buf;
          Pickle.encode_into t.pickle_buf App.codec_update u;
          Buffer.contents t.pickle_buf)
        updates
    in
    let d = phase m_phase_pickle t0 in
    t.phase <- { t.phase with pickle_s = t.phase.pickle_s +. d };
    let req = if Option.is_some holds then Trace.request () else None in
    { updates; payloads; holds; req }

  let member_size m =
    List.fold_left (fun acc p -> acc + String.length p + Wal.frame_overhead) 0 m.payloads

  let group_updates members = List.concat_map (fun m -> m.updates) members

  (* The paper's step one, for a member that carries a precondition:
     check it against [state].  A refusal or a raise leaves the member
     out of its group.  The span names the member's request, not the
     folding thread's. *)
  let verify t state m holds =
    let t0 = now () in
    let o =
      match holds state with
      | true -> Commit_core.Pending
      | false -> Commit_core.Refused
      | exception e -> Commit_core.Failed e
    in
    let attrs () =
      match m.req with Some id -> ("req", id) :: app_attrs () | None -> app_attrs ()
    in
    let d = phase m_phase_verify ~span:"update.verify" ~attrs t0 in
    t.phase <- { t.phase with verify_s = t.phase.verify_s +. d };
    o

  (* Fold the sealed group, in stage order, into the version its commit
     will publish: each member's precondition against the state folded
     so far — every earlier group and every earlier member of this one —
     then, if it holds, the member's updates.  Nothing is staged yet, so
     a raising [App.apply] fails the group before the commit point and
     the engine stays usable.  The verifies nest in the apply span; the
     apply phase leaves them out, so the phases stay disjoint. *)
  let fold_group t members =
    check_usable t;
    let t0 = now () and verified = t.phase.verify_s in
    let next, outcomes =
      List.fold_left_map
        (fun ({ state; lsn } as v) m ->
          match Option.fold ~none:Commit_core.Pending ~some:(verify t state m) m.holds with
          | Pending ->
            let state = List.fold_left App.apply state m.updates in
            ({ state; lsn = lsn + List.length m.updates }, Commit_core.Pending)
          | o -> (v, o))
        (current t) members
    in
    let d = now () -. t0 in
    if Trace.active () then
      Trace.span "update.apply" ~attrs:(group_attrs members ()) ~start_s:t0 ~dur_s:d;
    let d = d -. (t.phase.verify_s -. verified) in
    Metrics.observe m_phase_apply d;
    t.phase <- { t.phase with apply_s = t.phase.apply_s +. d };
    (next, outcomes)
  [@@sdb.requires update]

  (* Stage every member's frames and emit them with one write and one
     fsync: the commit point of the whole group.  "update.log" covers
     exactly that — stage, write, fsync — not the pickling. *)
  let log_group t members =
    let t0 = now () in
    (try List.iter (fun m -> List.iter (Wal.Writer.stage t.wal) m.payloads) members
     with e ->
       (* an oversized frame: nothing reached the disk *)
       Wal.Writer.discard_group t.wal;
       raise e);
    (try ignore (Wal.Writer.flush_group t.wal : int * int) with
    | Wal.Append_rolled_back (Fs.No_space _ as cause) ->
      (* Nothing reached the log; the disk is just full.  Fail the
         group cleanly and go read-only until a checkpoint can reclaim
         log space. *)
      let reason = Fs.describe_exn cause in
      enter_degraded t reason;
      raise (Degraded reason)
    | Wal.Append_rolled_back cause ->
      (* The write failed but the log was restored to its exact prior
         contents — still before the commit point. *)
      raise cause
    | e ->
      (* Partial bytes may remain, or the fsync failed with an unknown
         prefix durable (fsyncgate: never retried). *)
      t.poisoned <- true;
      raise e);
    let attrs () =
      ("bytes", string_of_int (List.fold_left (fun n m -> n + member_size m) 0 members))
      :: group_attrs members ()
    in
    let d = phase m_phase_log ~span:"update.log" ~attrs t0 in
    t.phase <- { t.phase with log_s = t.phase.log_s +. d }
  [@@sdb.requires update]

  (* Committed: make the folded version current.  The single writer
     publishes before it releases Exclusive, so versions appear in
     commit order and no reader sees version N+1 before version N. *)
  let publish t next =
    Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Exclusive
      ~site:"commit.publish";
    let n = next.lsn - (current t).lsn in
    Atomic.set t.root next;
    t.committed <- t.committed + n;
    t.since_ckpt <- t.since_ckpt + n;
    Metrics.add m_updates n;
    Metrics.observe m_group_size (float_of_int n)
  [@@sdb.requires exclusive]

  (* Subscribers see a group's updates in LSN order, exactly as if the
     members had committed one by one: they hold the LSNs just below
     [next.lsn]. *)
  let notify_group t members next =
    let updates = group_updates members in
    let first = next.lsn - List.length updates in
    Trace.with_span "update.notify" ~attrs:(group_attrs members ()) (fun () ->
        List.iteri (fun i u -> notify t (first + i) u) updates)

  let engine =
    {
      Commit_core.size = member_size;
      fold = fold_group;
      log = log_group;
      publish;
      notify = notify_group;
      member_failure = (fun t e -> if t.poisoned then Poisoned else e);
    }

  let commit t ?holds updates =
    check_updatable t;
    let r = Commit.commit t.commit engine t (prepare_member t ?holds updates) in
    if r = `Committed then maybe_auto_checkpoint t;
    r
  [@@sdb.acquires exclusive]

  (* The fold runs the precondition on the leader's thread; its [Error]
     comes back through [refusal]. *)
  let update_checked t ~precondition u =
    let refusal = ref None in
    let holds st =
      match precondition st with
      | Ok () -> true
      | Error e ->
        refusal := Some e;
        false
    in
    match commit t ~holds [ u ] with
    | `Committed -> Ok ()
    | `Refused -> Error (Option.get !refusal)

  let unconditional t updates =
    match commit t updates with `Committed -> () | `Refused -> assert false

  let update t u = unconditional t [ u ]

  (* One member carrying many updates: its frames stay contiguous and
     share one write and one fsync, all or nothing. *)
  let update_batch t updates =
    if updates = [] then check_updatable t else unconditional t updates

  (* ---------------------------------------------------------------- *)
  (* Online integrity scrub                                             *)

  let scan_page = 4096

  let really_read r buf want =
    let got = ref 0 in
    let eof = ref false in
    while (not !eof) && !got < want do
      let n = r.Fs.r_read buf !got (want - !got) in
      if n = 0 then eof := true else got := !got + n
    done

  (* Scan one whole file for unreadable (media-damaged) ranges, page by
     page: a damaged page yields one finding and the scan resumes at
     the next page, so every distinct damage range is reported rather
     than only the first. *)
  let scan_file t file findings =
    if t.fs.Fs.exists file then begin
      match t.fs.Fs.open_reader file with
      | exception e ->
        findings := { file; offset = 0; reason = Fs.describe_exn e } :: !findings
      | r ->
        Fun.protect
          ~finally:(fun () -> r.Fs.r_close ())
          (fun () ->
            let size = r.Fs.r_size in
            let buf = Bytes.create scan_page in
            let off = ref 0 in
            while !off < size do
              let want = min scan_page (size - !off) in
              (match
                 r.Fs.r_seek !off;
                 really_read r buf want
               with
              | () -> ()
              | exception Fs.Read_error { offset; reason; _ } ->
                findings := { file; offset; reason } :: !findings
              | exception e ->
                findings :=
                  { file; offset = !off; reason = Fs.describe_exn e }
                  :: !findings);
              off := !off + want
            done)
    end

  (* Frame-level verification of one log file: CRC-checks every entry
     under [Skip_damaged] so damage past the first bad entry is still
     enumerated, folding the updates below [upto] as [fold_from] does.
     Each damaged entry, or the unusable file, is a finding. *)
  let verify_log t log findings ~lsn ~upto ~init ~f =
    let add offset reason = findings := { file = log; offset; reason } :: !findings in
    match fold_from t.fs log ~policy:Wal.Reader.Skip_damaged ~lsn ~upto ~init ~f with
    | Error reason ->
      add 0 reason;
      None
    | Ok (acc, lsn, outcome) ->
      List.iter (fun (offset, reason) -> add offset reason) outcome.Wal.Reader.damage;
      Some (acc, lsn, outcome)

  (* Re-read current (and retained previous) checkpoint + log under the
     checkpoint token and the update lock, so enquiries keep running
     while updates and checkpoints wait.  With [repair] (and damage
     found), a fresh generation is checkpointed from the known-good
     in-memory state, still under the token, and the damaged files are
     dropped. *)
  let scrub ?(repair = false) ?digest t =
    check_usable t;
    let t0 = now () in
    Sdb_check.Mu.lock t.ckpt_mutex;
    Fun.protect
      ~finally:(fun () -> Sdb_check.Mu.unlock t.ckpt_mutex)
      (fun () ->
        let scanned, findings, replay_consistent =
          Vlock.with_lock t.lock Vlock.Update (fun () ->
            check_usable t;
            Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Update
              ~site:"scrub";
            let gen = t.generation in
            let ckpt = Store.checkpoint_file gen in
            let log = Store.log_file gen in
            let findings = ref [] in
            let scanned = ref [] in
            let note file = scanned := file :: !scanned in
            (* 1. Media scan of every file of both generations. *)
            note ckpt;
            scan_file t ckpt findings;
            note log;
            scan_file t log findings;
            let prev_ckpt = Store.checkpoint_file (gen - 1) in
            let prev_log = Store.log_file (gen - 1) in
            if gen > 0 && t.fs.Fs.exists prev_ckpt then begin
              note prev_ckpt;
              scan_file t prev_ckpt findings
            end;
            if gen > 0 && t.fs.Fs.exists prev_log then begin
              note prev_log;
              scan_file t prev_log findings;
              (* frames only: from its own base, nothing decoded *)
              let lsn = Result.value (log_base t.fs prev_log) ~default:0 in
              ignore
                (verify_log t prev_log findings ~lsn ~upto:lsn ~init:() ~f:(fun () _ _ -> ())
                  : (unit * int * _) option)
            end;
            (* 2. Shadow replay: decode the checkpoint, replay the log
               into it, and cross-check the result against memory. *)
            let replay_consistent = ref true in
            (match load_checkpoint t.fs ckpt with
            | exception Fs.Read_error _ ->
              (* already reported by the media scan *)
              replay_consistent := false
            | Error reason ->
              replay_consistent := false;
              if not (List.exists (fun f -> String.equal f.file ckpt) !findings)
              then findings := { file = ckpt; offset = 0; reason } :: !findings
            | Ok (meta, shadow0) -> (
              match
                verify_log t log findings ~lsn:meta.base_lsn ~upto:max_int ~init:shadow0
                  ~f:(fun st _ u -> App.apply st u)
              with
              | None -> replay_consistent := false
              | Some (shadow, shadow_lsn, outcome) ->
                if
                  outcome.Wal.Reader.skipped > 0
                  || outcome.Wal.Reader.stopped_early <> None
                then replay_consistent := false
                else begin
                  let memory = current t in
                  if shadow_lsn <> memory.lsn then begin
                    replay_consistent := false;
                    findings :=
                      {
                        file = log;
                        offset = outcome.Wal.Reader.valid_length;
                        reason =
                          Printf.sprintf
                            "replay reaches lsn %d but memory is at lsn %d"
                            shadow_lsn memory.lsn;
                      }
                      :: !findings
                  end;
                  match digest with
                  | Some d when !replay_consistent ->
                    if not (String.equal (d shadow) (d memory.state)) then begin
                      replay_consistent := false;
                      findings :=
                        {
                          file = ckpt;
                          offset = -1;
                          reason = "replayed disk state digest differs from memory";
                        }
                        :: !findings
                    end
                  | _ -> ()
                end))
            ;
            (List.rev !scanned, List.rev !findings, !replay_consistent))
        in
        Metrics.incr m_scrub_runs;
        Metrics.add m_scrub_damage (List.length findings);
        (* 3. Self-repair: memory is the known-good copy (§4 — restore
           consistency by writing a fresh checkpoint from it), then drop
           the damaged files the new generation no longer references. *)
        let repaired =
          repair && findings <> []
          &&
          match write_generation t with
          | () ->
            Metrics.incr m_scrub_repairs;
            List.iter
              (fun (f : scrub_finding) ->
                if f.offset >= 0 && t.fs.Fs.exists f.file then
                  try t.fs.Fs.remove f.file with Fs.Io_error _ -> ())
              findings;
            true
          | exception Fs.No_space _ -> false
          (* repair needs headroom; report unrepaired, try later *)
        in
        let report =
          {
            scanned_files = scanned;
            findings;
            replay_consistent;
            repaired;
            scrub_duration_s = now () -. t0;
          }
        in
        if Trace.active () then
          Trace.span "scrub"
            ~attrs:
              [
                ("app", App.name);
                ("findings", string_of_int (List.length findings));
                ("repaired", string_of_bool repaired);
              ]
            ~start_s:t0 ~dur_s:report.scrub_duration_s;
        report)
  [@@sdb.acquires update]

  (* ---------------------------------------------------------------- *)
  (* Background scrubber                                               *)

  let scrub_tick = 0.05

  let start_scrubber ?(interval = 60.) ?(repair = true) ?digest t =
    check_usable t;
    if t.scrub_thread <> None then
      invalid_arg "Smalldb.start_scrubber: already running";
    t.scrub_stop <- false;
    let alive () = (not t.scrub_stop) && not t.closed in
    let thread =
      Thread.create
        (fun () ->
          let rec sleep_until deadline =
            if alive () then begin
              let left = deadline -. now () in
              if left > 0. then begin
                Thread.delay (Float.min scrub_tick left);
                sleep_until deadline
              end
            end
          in
          let rec loop () =
            sleep_until (now () +. interval);
            if alive () then begin
              (match scrub ~repair ?digest t with
              | (_ : scrub_report) -> ()
              | exception (Closed | Poisoned) -> t.scrub_stop <- true
              | exception _ -> ());
              loop ()
            end
          in
          loop ())
        ()
    in
    t.scrub_thread <- Some thread

  let stop_scrubber t =
    t.scrub_stop <- true;
    match t.scrub_thread with
    | None -> ()
    | Some th ->
      t.scrub_thread <- None;
      Thread.join th

  (* ---------------------------------------------------------------- *)
  (* Introspection                                                     *)

  let stats t =
    Vlock.with_lock t.lock Vlock.Shared (fun () ->
        {
          generation = t.generation;
          lsn = (current t).lsn;
          updates_committed = t.committed;
          checkpoints_written = t.ckpts;
          log_entries = Wal.Writer.entries t.wal;
          log_bytes = Wal.Writer.length t.wal;
          phase = t.phase;
          recovery = t.recovery;
          background_checkpoint =
            (match t.pickling with
            | None -> `Idle
            | Some p -> if pickle_finished p then `Ready else `Pickling);
        })

  (* The update lock pins the log file name and its base LSN without
     blocking enquiries. *)
  let log_start t = (current t).lsn - Wal.Writer.entries t.wal [@@sdb.requires update]

  let fold_current_log t ~init ~f =
    match
      fold_from t.fs (Store.log_file t.generation) ~policy:Wal.Reader.Stop_at_damage
        ~lsn:(log_start t) ~upto:max_int ~init ~f
    with
    | Ok (acc, _, _outcome) -> acc
    | Error e -> Fs.io_fail ~op:"read" e
  [@@sdb.requires update]

  let fold_log t ~init ~f =
    check_usable t;
    Vlock.with_lock t.lock Vlock.Update (fun () -> fold_current_log t ~init ~f)

  let log_suffix t ~from =
    check_usable t;
    Vlock.with_lock t.lock Vlock.Update (fun () ->
        if from < log_start t then None
        else
          Some
            (List.rev
               (fold_current_log t ~init:[] ~f:(fun acc lsn u ->
                    if lsn >= from then (lsn, u) :: acc else acc))))

  module History = struct
    (* The archive is usable only when it is contiguous from the very
       first generation and meets the current log exactly: archive logs
       0..g-1 followed by the live log of generation g.  With
       [retain_previous], generation g-1's log is still live as
       logfile<g-1> and stands in for its archive. *)
    let plan t =
      let archives = Store.archived_logs t.fs in
      let n = List.length archives in
      let retained =
        if n = t.generation - 1 && t.fs.Fs.exists (Store.log_file n) then
          [ Store.log_file n ]
        else []
      in
      if List.map fst archives <> List.init n Fun.id then
        Error "history: archive is not contiguous from generation 0"
      else if n + List.length retained <> t.generation then
        Error
          (Printf.sprintf
             "history: %d archived logs but current generation is %d (archiving \
              was off at some point)"
             n t.generation)
      else Ok (List.map snd archives @ retained @ [ Store.log_file t.generation ])

    (* Each log is folded only below the next one's base: the entries
       from there on were carried into the next log.  Damage or
       truncation in an archive is corruption of history, not a
       recoverable tail.  The result carries the trail's length and the
       root's LSN, both read in the one Update hold. *)
    let fold_all t ~init ~f =
      check_usable t;
      Vlock.with_lock t.lock Vlock.Update (fun () ->
          match plan t with
          | Error e -> Error e
          | Ok logs ->
            let rec go acc lsn = function
              | [] -> Ok (acc, lsn, (current t).lsn)
              | log :: rest -> (
                let upto = match rest with [] -> Ok max_int | next :: _ -> log_base t.fs next in
                match
                  Result.bind upto (fun upto ->
                      fold_from t.fs log ~policy:Wal.Reader.Stop_at_damage ~lsn ~upto ~init:acc ~f)
                with
                | Error e -> Error ("history: " ^ e)
                | Ok (_, _, outcome) when rest <> [] && outcome.Wal.Reader.stopped_early <> None ->
                  Error (Printf.sprintf "history: archived log %s is damaged" log)
                | Ok (acc, lsn, _) -> go acc lsn rest)
            in
            go init 0 logs)

    (* The trail's length is compared with the LSN read in the same
       Update hold: an update committed after it is in neither. *)
    let fold t ~init ~f =
      match fold_all t ~init ~f with
      | Ok (acc, trail, lsn) ->
        if trail <> lsn then
          Error (Printf.sprintf "history: trail holds %d updates but lsn is %d" trail lsn)
        else Ok acc
      | Error e -> Error e

    let available t = Result.is_ok (fold t ~init:() ~f:(fun () _ _ -> ()))

    let state_at t ~lsn =
      let last = (current t).lsn in
      if lsn < 0 || lsn > last then
        Error (Printf.sprintf "history: lsn %d outside [0, %d]" lsn last)
      else
        match
          fold_all t ~init:(App.init ()) ~f:(fun state at u ->
              if at < lsn then App.apply state u else state)
        with
        | Ok (state, total, _) ->
          if total < lsn then Error "history: trail shorter than requested lsn"
          else Ok state
        | Error e -> Error e
  end

  (* Close the log under Update: the instance is closed from here on. *)
  let close_log t =
    Vlock.acquire t.lock Vlock.Update;
    (* a non-Io_error exception from the WAL close (e.g. an injected
       fault) must not strand the Update mode *)
    Fun.protect
      ~finally:(fun () -> Vlock.release t.lock Vlock.Update)
      (fun () ->
        t.closed <- true;
        try Wal.Writer.close t.wal with Fs.Io_error _ -> ())
  [@@sdb.acquires update]

  (* A finished policy pickle is installed first; one still running is
     abandoned — its domain finishes on its own and nothing installs
     it.  A failed install does not keep the instance open: it re-raises
     once the log is closed, except a full disk, which only leaves the
     log as the authoritative tail. *)
  let close t =
    if not t.closed then begin
      stop_scrubber t;
      Sdb_check.Mu.lock t.ckpt_mutex;
      Fun.protect
        ~finally:(fun () -> Sdb_check.Mu.unlock t.ckpt_mutex)
        (fun () ->
          let failed =
            if t.closed || t.poisoned then None
            else
              match install_finished t with
              | () | (exception Fs.No_space _) -> None
              | exception e -> Some e
          in
          close_log t;
          Option.iter raise failed)
    end
  [@@sdb.acquires update]

  let open_ ?(config = default_config) fs =
    match
      Store.recover ~archive_logs:config.archive_logs
        ~retain_previous:config.retain_previous fs
    with
    | Error e -> Error e
    | Ok None -> create_fresh fs config
    | Ok (Some rcv) -> (
      match restore fs config rcv with
      | Error e -> Error e
      | Ok t ->
        (* After a hard-error restore the current checkpoint file is
           damaged; write a fresh consistent generation right away. *)
        if t.recovery.used_previous_generation then checkpoint t;
        Ok t)

  let open_exn ?config fs =
    match open_ ?config fs with Ok t -> t | Error e -> failwith e

  (* ---------------------------------------------------------------- *)
  (* Restore from a replica (§4)                                       *)

  (* The bytes a checkpoint of the current version would hold: the
     root pinned by one read, pickled with no lock held. *)
  let image t =
    let state, lsn = query_with_lsn t Fun.id in
    (lsn, checkpoint_blob ~lsn state)

  let install ?(config = default_config) fs ~lsn image =
    match
      Store.recover ~archive_logs:config.archive_logs
        ~retain_previous:config.retain_previous fs
    with
    | Error e -> Error e
    | Ok (Some _) -> Error "install: the store is not empty"
    | Ok None ->
      Wal.Writer.close (write_first_generation fs config ~lsn image);
      open_ ~config fs
end
