module Pickle = Sdb_pickle.Pickle
module Fs = Sdb_storage.Fs
module Wal = Sdb_wal.Wal
module Vlock = Sdb_vlock.Vlock
module Epoch = Sdb_epoch.Epoch
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
  hard_error_fallback : bool;
  archive_logs : bool;
  group_commit : bool;
  read_path : [ `Locked | `Epoch ];
}

let default_config =
  {
    retain_previous = false;
    policy = Manual;
    log_recovery = `Stop_at_damage;
    hard_error_fallback = true;
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

  (* One commit-pipeline member: an update (or a whole batch),
     verified and pickled under the Update lock. *)
  type member = {
    updates : App.update list;
    payloads : string list;
    mutable first_lsn : int;  (* assigned at apply *)
  }

  type t = {
    fs : Fs.t;
    config : config;
    lock : Vlock.t;
    ckpt_mutex : Sdb_check.Mu.t;  (* serializes checkpoints of both kinds *)
    commit : member Commit.t;
    (* reusable pickle scratch; guarded by the Update lock *)
    pickle_buf : Buffer.t;
    (* The lock-free read path (config.read_path = `Epoch): the state
       root is also published through an epoch-protected snapshot
       pointer, swung at the end of every Exclusive window.  Requires
       App.state to be persistent (see the mli). *)
    epoch : App.state Epoch.t option;
    mutable state : App.state;
    mutable wal : Wal.Writer.t;
    mutable generation : int;
    mutable lsn : int;
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
    mutable last_scrub : scrub_report option;
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

  (* Swing the published snapshot to the state just applied.  Must run
     inside the Exclusive window (single writer, before release): the
     pointer swing is then ordered with the commit, so a reader never
     observes version N+1 before version N. *)
  let publish_epoch t =
    match t.epoch with
    | None -> ()
    | Some e -> Epoch.publish e ~lsn:t.lsn t.state
  [@@sdb.requires exclusive]

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
         I/O (the concurrent checkpoint's WAL tail blit), so it is exempt
         from the no-blocking-under-mutex rule — at runtime (the
         sanitizer's I/O assert filters on kind) and statically. *)
      ckpt_mutex = Sdb_check.Mu.make ~kind:`Vlock ("smalldb.ckpt:" ^ App.name);
      commit = Commit.create ~name:App.name ~grouped:config.group_commit lock;
      pickle_buf = Buffer.create 256;
      epoch =
        (match config.read_path with
        | `Locked -> None
        | `Epoch -> Some (Epoch.create ~name:App.name ~lsn state));
      state;
      wal;
      generation;
      lsn;
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
      last_scrub = None;
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

  let create_fresh fs config =
    let state = App.init () in
    let blob = checkpoint_blob ~lsn:0 state in
    Store.write_checkpoint fs ~version:0 blob;
    let wal = Wal.Writer.create fs (Store.log_file 0) ~fingerprint:update_fp in
    Store.commit ~archive_logs:config.archive_logs
      ~retain_previous:config.retain_previous ~old_version:None ~new_version:0 fs;
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

  let wal_policy = function
    | `Stop_at_damage -> Wal.Reader.Stop_at_damage
    | `Skip_damaged -> Wal.Reader.Skip_damaged

  (* Fold [f acc index update] over one log's decoded entries. *)
  let fold_updates fs log ~policy ~init ~f =
    Wal.Reader.fold fs log ~fingerprint:update_fp ~policy ~init
      ~f:(fun acc (entry : Wal.Reader.entry) ->
        f acc entry.index (Pickle.decode App.codec_update entry.payload))

  (* Replay one log over (state, lsn); apply errors are fatal because a
     committed update must be applicable.  Valid committed entries
     beyond damage are a hard error (§4), not a torn tail: truncating
     would silently lose them, so escalate instead of guessing. *)
  let replay fs config ~log ~state ~lsn =
    match
      fold_updates fs log ~policy:(wal_policy config.log_recovery)
        ~init:(state, lsn) ~f:(fun (state, lsn) _ u -> (App.apply state u, lsn + 1))
    with
    | Error e -> Error (Format.asprintf "log %s: %a" log Wal.pp_error e)
    | Ok (_, outcome) when outcome.Wal.Reader.entries_beyond_damage > 0 ->
      Error
        (Printf.sprintf
           "log %s: interior damage with %d committed entries beyond it; use \
            Skip_damaged recovery or restore from a replica"
           log outcome.Wal.Reader.entries_beyond_damage)
    | Ok ((state, lsn), outcome) -> Ok (state, lsn, outcome)
    | exception Pickle.Error m ->
      Error (Printf.sprintf "log %s: undecodable committed entry: %s" log m)

  let restore fs config (rcv : Store.recovery) =
    let gen = rcv.Store.current in
    let t0 = now () in
    let current_ckpt = load_checkpoint fs gen.Store.checkpoint_file in
    let via_previous reason =
      match (config.hard_error_fallback, rcv.Store.previous) with
      | true, Some prev -> (
        match load_checkpoint fs prev.Store.checkpoint_file with
        | Error e ->
          Error
            (Printf.sprintf "%s; previous generation also unusable: %s" reason e)
        | Ok (meta, state) -> (
          match
            replay fs config ~log:prev.Store.log_file ~state ~lsn:meta.base_lsn
          with
          | Error e -> Error (Printf.sprintf "%s; previous log: %s" reason e)
          | Ok (state, lsn, _outcome) -> Ok (meta, state, lsn, true)))
      | _ -> Error reason
    in
    let loaded =
      match current_ckpt with
      | Ok (meta, state) -> Ok (meta, state, meta.base_lsn, false)
      | Error reason -> via_previous reason
    in
    match loaded with
    | Error e -> Error e
    | Ok (_meta, state, lsn, used_previous) -> (
      let t1 = now () in
      match replay fs config ~log:gen.Store.log_file ~state ~lsn with
      | Error e -> Error e
      | Ok (state, lsn, outcome) ->
        let t2 = now () in
        let entries_in_file =
          outcome.Wal.Reader.entries_read + outcome.Wal.Reader.skipped
        in
        let wal =
          Wal.Writer.reopen fs gen.Store.log_file ~fingerprint:update_fp
            ~valid_length:outcome.Wal.Reader.valid_length ~entries:entries_in_file
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
        t.since_ckpt <- entries_in_file;
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

  (* Write generation [next] from a state pickled over [t0, t1], start
     its log with whatever [carry] copies in (the entries committed
     since the snapshot; it returns their count), and commit the switch.
     [in_update] runs the log swap under the Update lock.  A failure
     before the commit point scraps the partial generation and fails
     just this checkpoint, the engine staying on the current one; after
     it, memory and disk may disagree, so the engine poisons. *)
  let switch_generation t ~kind ~t0 ~t1 blob ~in_update ~carry =
    let next = t.generation + 1 in
    let committed = ref false in
    (try
       Store.write_checkpoint t.fs ~version:next blob;
       in_update (fun () ->
           (* Start the new generation's log before touching the old
              one: any failure up to the commit point leaves the current
              generation intact and appendable. *)
           let wal = Wal.Writer.create t.fs (Store.log_file next) ~fingerprint:update_fp in
           let carried = carry wal in
           (try
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
           t.since_ckpt <- carried;
           note_space_reclaimed t)
     with
     | (Fs.No_space _ | Wal.Append_rolled_back _) as e when not !committed ->
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
        ckpt_write_s = p.ckpt_write_s +. (t2 -. t1);
      };
    Metrics.incr m_checkpoints;
    Metrics.observe m_ckpt_pickle (t1 -. t0);
    Metrics.observe m_ckpt_write (t2 -. t1);
    if Trace.active () then
      Trace.span "checkpoint"
        ~attrs:
          [
            ("app", App.name);
            ("kind", kind);
            ("generation", string_of_int t.generation);
          ]
        ~start_s:t0 ~dur_s:(t2 -. t0)

  let checkpoint_locked t =
    let t0 = now () in
    let blob = checkpoint_blob ~lsn:t.lsn t.state in
    switch_generation t ~kind:"blocking" ~t0 ~t1:(now ()) blob
      ~in_update:(fun f -> f ())
      ~carry:(fun _ -> 0)
  [@@sdb.requires update]

  (* [due] is re-checked under the locks: the members of a group all
     finish together, and only the first of them should checkpoint. *)
  let checkpoint_if t due =
    check_usable t;
    Sdb_check.Mu.lock t.ckpt_mutex;
    Fun.protect
      ~finally:(fun () -> Sdb_check.Mu.unlock t.ckpt_mutex)
      (fun () ->
        Vlock.acquire t.lock Vlock.Update;
        Fun.protect
          ~finally:(fun () -> Vlock.release t.lock Vlock.Update)
          (fun () ->
            check_usable t;
            if due t then checkpoint_locked t))
  [@@sdb.acquires update]

  let checkpoint t = checkpoint_if t (fun _ -> true) [@@sdb.acquires update]

  (* The fuzzy checkpoint: snapshot cheaply (the state is immutable),
     pickle with no lock held, then briefly take the update lock to
     carry the few concurrently-committed entries into the new
     generation's log and commit the switch. *)
  let checkpoint_concurrent t =
    check_usable t;
    if t.config.archive_logs then
      invalid_arg "Smalldb.checkpoint_concurrent: incompatible with archive_logs";
    Sdb_check.Mu.lock t.ckpt_mutex;
    Fun.protect
      ~finally:(fun () -> Sdb_check.Mu.unlock t.ckpt_mutex)
      (fun () ->
        check_usable t;
        (* Phase 1: O(1) snapshot.  A momentary update lock pins the
           (state, lsn, log length) triple consistently. *)
        let snapshot, snap_lsn, snap_off =
          Vlock.with_lock t.lock Vlock.Update (fun () ->
              (t.state, t.lsn, Wal.Writer.length t.wal))
        in
        (* Phase 2: the expensive work, with updates running freely. *)
        let t0 = now () in
        let blob = checkpoint_blob ~lsn:snap_lsn snapshot in
        (* Phase 3: brief exclusion, proportional to the updates that
           arrived during phase 2: blit the tail committed since the
           snapshot — raw frames, no decoding. *)
        let carry wal' =
          let tail_len = Wal.Writer.length t.wal - snap_off in
          if tail_len > 0 then begin
            let r = t.fs.Fs.open_reader (Store.log_file t.generation) in
            Fun.protect
              ~finally:(fun () -> r.Fs.r_close ())
              (fun () ->
                r.Fs.r_seek snap_off;
                let buf = Bytes.create tail_len in
                let rec fill got =
                  if got < tail_len then begin
                    let n = r.Fs.r_read buf got (tail_len - got) in
                    if n = 0 then
                      Fs.io_fail ~op:"read" "checkpoint_concurrent: short tail read";
                    fill (got + n)
                  end
                in
                fill 0;
                Wal.Writer.append_raw_frames wal' (Bytes.unsafe_to_string buf)
                  ~count:(t.lsn - snap_lsn));
            Wal.Writer.sync wal'
          end;
          t.lsn - snap_lsn
        in
        switch_generation t ~kind:"concurrent" ~t0 ~t1:(now ()) blob
          ~in_update:(fun f -> Vlock.with_lock t.lock Vlock.Update f)
          ~carry)
  [@@sdb.acquires update]

  let due_for_checkpoint t =
    match t.config.policy with
    | Manual -> false
    (* Count updates since the last checkpoint, not [committed mod n]:
       a batch that jumps over the multiple must still trigger. *)
    | Every_n_updates n -> n > 0 && t.since_ckpt >= n
    | Log_bytes_exceeds limit -> Wal.Writer.length t.wal > limit

  let maybe_auto_checkpoint t =
    if due_for_checkpoint t && now () >= t.auto_ckpt_retry_at then
      try checkpoint_if t due_for_checkpoint
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

  let query t f =
    check_usable t;
    match t.epoch with
    | Some e -> Epoch.read e f
    | None ->
      Vlock.with_lock t.lock Vlock.Shared (fun () ->
          Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Shared
            ~site:"query";
          f t.state)
  [@@sdb.acquires shared]

  let query_with_lsn t f =
    check_usable t;
    match t.epoch with
    | Some e ->
      (* Payload and LSN come from the same published version — the
         atomicity the locked route gets from holding Shared across
         both reads. *)
      Epoch.read_with_lsn e f
    | None ->
      Vlock.with_lock t.lock Vlock.Shared (fun () ->
          Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Shared
            ~site:"query_with_lsn";
          (f t.state, t.lsn))
  [@@sdb.acquires shared]

  (* ---------------------------------------------------------------- *)
  (* The commit pipeline (§3, §4d)                                     *)

  (* The paper's three steps under the paper's locks: Update for verify
     and the log write (enquiries keep running), Exclusive only for the
     memory mutation.  [Commit] sequences them; these are the steps.

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

  (* Under Update: the precondition, then the pickles.  A raising
     precondition or pickler propagates with nothing staged. *)
  let prepare_member t ~verify updates () =
    Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Update
      ~site:"commit.prepare";
    let t0 = now () in
    let v = verify t.state in
    let d = phase m_phase_verify ~span:"update.verify" ~attrs:app_attrs t0 in
    t.phase <- { t.phase with verify_s = t.phase.verify_s +. d };
    match v with
    | Error e -> Error e
    | Ok () ->
      let t1 = now () in
      (* The scratch buffer is guarded by the Update lock. *)
      let payloads =
        List.map
          (fun u ->
            Buffer.clear t.pickle_buf;
            Pickle.encode_into t.pickle_buf App.codec_update u;
            Buffer.contents t.pickle_buf)
          updates
      in
      let d = phase m_phase_pickle t1 in
      t.phase <- { t.phase with pickle_s = t.phase.pickle_s +. d };
      Ok { updates; payloads; first_lsn = 0 }

  let member_size m =
    List.fold_left (fun acc p -> acc + String.length p + Wal.frame_overhead) 0 m.payloads

  (* Stage every member's frames and emit them with one write and one
     fsync: the commit point of the whole group.  "update.log" covers
     exactly that — stage, write, fsync — not the pickling. *)
  let log_group t members =
    if t.closed then raise Closed;
    if t.poisoned then raise Poisoned;
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

  (* Committed: apply in stage order and assign dense LSNs.  A
     committed update must apply, so a raising [App.apply] poisons. *)
  let apply_group t members =
    Sdb_check.assert_mode (Vlock.sanitizer t.lock) Sdb_check.Exclusive
      ~site:"commit.apply";
    let t0 = now () in
    (try
       List.iter
         (fun m -> List.iter (fun u -> t.state <- App.apply t.state u) m.updates)
         members
     with e ->
       t.poisoned <- true;
       raise e);
    let d = phase m_phase_apply ~span:"update.apply" ~attrs:(group_attrs members) t0 in
    t.phase <- { t.phase with apply_s = t.phase.apply_s +. d };
    let base = t.lsn in
    List.iter
      (fun m ->
        m.first_lsn <- t.lsn;
        t.lsn <- t.lsn + List.length m.updates)
      members;
    let n = t.lsn - base in
    t.committed <- t.committed + n;
    t.since_ckpt <- t.since_ckpt + n;
    Metrics.add m_updates n;
    Metrics.observe m_group_size (float_of_int n);
    publish_epoch t
  [@@sdb.requires exclusive]

  (* Subscribers see a group's updates in LSN order, exactly as if the
     members had committed one by one. *)
  let notify_group t members =
    Trace.with_span "update.notify" ~attrs:(group_attrs members ()) (fun () ->
        List.iter
          (fun m -> List.iteri (fun i u -> notify t (m.first_lsn + i) u) m.updates)
          members)

  let engine =
    {
      Commit_core.size = member_size;
      log = log_group;
      apply = apply_group;
      notify = notify_group;
      member_failure = (fun t e -> if t.poisoned then Poisoned else e);
    }

  (* A checked update never joins a group: its precondition runs after
     every earlier commit is applied. *)
  let commit t ~checked ~verify updates =
    check_updatable t;
    let r = Commit.commit t.commit engine t ~checked (prepare_member t ~verify updates) in
    if Result.is_ok r then maybe_auto_checkpoint t;
    r
  [@@sdb.acquires exclusive]

  let update_checked t ~precondition u =
    commit t ~checked:true ~verify:precondition [ u ]

  let unconditional t updates =
    match commit t ~checked:false ~verify:(fun _ -> Ok ()) updates with
    | Ok () -> ()
    | Error (_ : unit) -> assert false

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
     enumerated, optionally folding the decoded updates. *)
  let verify_log t log findings ~f ~init =
    match
      Wal.Reader.fold t.fs log ~fingerprint:update_fp
        ~policy:Wal.Reader.Skip_damaged ~init ~f
    with
    | Error e ->
      findings :=
        { file = log; offset = 0; reason = Format.asprintf "%a" Wal.pp_error e }
        :: !findings;
      None
    | exception Pickle.Error m ->
      findings :=
        { file = log; offset = 0; reason = "undecodable committed entry: " ^ m }
        :: !findings;
      None
    | Ok (acc, outcome) ->
      List.iter
        (fun (offset, reason) ->
          findings := { file = log; offset; reason } :: !findings)
        outcome.Wal.Reader.damage;
      Some (acc, outcome)

  (* Re-read current (and retained previous) checkpoint + log under the
     checkpoint mutex and the update lock — the same discipline as a
     blocking checkpoint, so enquiries keep running while updates and
     checkpoints wait.  With [repair] (and damage found), a fresh
     generation is checkpointed from the known-good in-memory state and
     the damaged files are dropped. *)
  let scrub ?(repair = false) ?digest t =
    check_usable t;
    let t0 = now () in
    Sdb_check.Mu.lock t.ckpt_mutex;
    Fun.protect
      ~finally:(fun () -> Sdb_check.Mu.unlock t.ckpt_mutex)
      (fun () ->
        Vlock.acquire t.lock Vlock.Update;
        Fun.protect
          ~finally:(fun () -> Vlock.release t.lock Vlock.Update)
          (fun () ->
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
              ignore
                (verify_log t prev_log findings ~init:() ~f:(fun () _ -> ())
                  : (unit * _) option)
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
                verify_log t log findings ~init:(shadow0, meta.base_lsn)
                  ~f:(fun (st, lsn) entry ->
                    let u =
                      Pickle.decode App.codec_update entry.Wal.Reader.payload
                    in
                    (App.apply st u, lsn + 1))
              with
              | None -> replay_consistent := false
              | Some ((shadow, shadow_lsn), outcome) ->
                if
                  outcome.Wal.Reader.skipped > 0
                  || outcome.Wal.Reader.stopped_early <> None
                then replay_consistent := false
                else begin
                  if shadow_lsn <> t.lsn then begin
                    replay_consistent := false;
                    findings :=
                      {
                        file = log;
                        offset = outcome.Wal.Reader.valid_length;
                        reason =
                          Printf.sprintf
                            "replay reaches lsn %d but memory is at lsn %d"
                            shadow_lsn t.lsn;
                      }
                      :: !findings
                  end;
                  match digest with
                  | Some d when !replay_consistent ->
                    if not (String.equal (d shadow) (d t.state)) then begin
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
            let findings = List.rev !findings in
            Metrics.incr m_scrub_runs;
            Metrics.add m_scrub_damage (List.length findings);
            (* 3. Self-repair: memory is the known-good copy (§4 —
               restore consistency by writing a fresh checkpoint from
               it), then drop the damaged files the new generation no
               longer references. *)
            let repaired = ref false in
            if repair && findings <> [] then begin
              match checkpoint_locked t with
              | () ->
                repaired := true;
                Metrics.incr m_scrub_repairs;
                List.iter
                  (fun (f : scrub_finding) ->
                    if f.offset >= 0 && t.fs.Fs.exists f.file then
                      try t.fs.Fs.remove f.file with Fs.Io_error _ -> ())
                  findings
              | exception Fs.No_space _ -> ()
              (* repair needs headroom; report unrepaired, try later *)
            end;
            let report =
              {
                scanned_files = List.rev !scanned;
                findings;
                replay_consistent = !replay_consistent;
                repaired = !repaired;
                scrub_duration_s = now () -. t0;
              }
            in
            t.last_scrub <- Some report;
            if Trace.active () then
              Trace.span "scrub"
                ~attrs:
                  [
                    ("app", App.name);
                    ("findings", string_of_int (List.length findings));
                    ("repaired", string_of_bool !repaired);
                  ]
                ~start_s:t0 ~dur_s:report.scrub_duration_s;
            report))

  let last_scrub t = t.last_scrub

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
          lsn = t.lsn;
          updates_committed = t.committed;
          checkpoints_written = t.ckpts;
          log_entries = Wal.Writer.entries t.wal;
          log_bytes = Wal.Writer.length t.wal;
          phase = t.phase;
          recovery = t.recovery;
        })

  let fold_log t ~init ~f =
    check_usable t;
    (* The update lock pins the log file name and the LSN base without
       blocking enquiries. *)
    Vlock.with_lock t.lock Vlock.Update (fun () ->
        let log = Store.log_file t.generation in
        let base = t.lsn - Wal.Writer.entries t.wal in
        match
          fold_updates t.fs log ~policy:Wal.Reader.Stop_at_damage ~init
            ~f:(fun acc i u -> f acc (base + i) u)
        with
        | Ok (acc, _outcome) -> acc
        | Error e -> Fs.io_fail ~op:"read" (Format.asprintf "%a" Wal.pp_error e))

  let log_suffix t ~from =
    check_usable t;
    Vlock.with_lock t.lock Vlock.Update (fun () ->
        let base = t.lsn - Wal.Writer.entries t.wal in
        if from < base then None
        else begin
          let log = Store.log_file t.generation in
          match
            Wal.Reader.fold t.fs log ~fingerprint:update_fp
              ~policy:Wal.Reader.Stop_at_damage ~init:[] ~f:(fun acc entry ->
                let lsn = base + entry.Wal.Reader.index in
                if lsn >= from then
                  (lsn, Pickle.decode App.codec_update entry.Wal.Reader.payload) :: acc
                else acc)
          with
          | Ok (acc, _outcome) -> Some (List.rev acc)
          | Error e -> Fs.io_fail ~op:"read" (Format.asprintf "%a" Wal.pp_error e)
        end)

  module History = struct
    (* The archive is usable only when it is contiguous from the very
       first generation and meets the current log exactly: archive logs
       0..g-1 followed by the live log of generation g. *)
    let plan t =
      let archives = Store.archived_logs t.fs in
      let expected = List.init (List.length archives) Fun.id in
      if List.map fst archives <> expected then
        Error "history: archive is not contiguous from generation 0"
      else if List.length archives <> t.generation then
        Error
          (Printf.sprintf
             "history: %d archived logs but current generation is %d (archiving \
              was off at some point)"
             (List.length archives) t.generation)
      else Ok (List.map snd archives @ [ Store.log_file t.generation ])

    (* Fold [f] over one log file; damage or truncation in an archive is
       corruption of history, not a recoverable tail. *)
    let fold_file t ~log ~strict acc lsn f =
      match
        fold_updates t.fs log ~policy:Wal.Reader.Stop_at_damage ~init:(acc, lsn)
          ~f:(fun (acc, lsn) _ u -> (f acc lsn u, lsn + 1))
      with
      | Error e -> Error (Format.asprintf "history: %s: %a" log Wal.pp_error e)
      | Ok ((acc, lsn), outcome) ->
        if strict && outcome.Wal.Reader.stopped_early <> None then
          Error (Printf.sprintf "history: archived log %s is damaged" log)
        else Ok (acc, lsn)
      | exception Pickle.Error m -> Error (Printf.sprintf "history: %s: %s" log m)

    let fold_all t ~init ~f =
      check_usable t;
      Vlock.with_lock t.lock Vlock.Update (fun () ->
          match plan t with
          | Error e -> Error e
          | Ok logs ->
            let current = Store.log_file t.generation in
            let rec go acc lsn = function
              | [] -> Ok (acc, lsn)
              | log :: rest -> (
                match
                  fold_file t ~log ~strict:(not (String.equal log current)) acc lsn f
                with
                | Error e -> Error e
                | Ok (acc, lsn) -> go acc lsn rest)
            in
            go init 0 logs)

    let fold t ~init ~f =
      match fold_all t ~init ~f with
      | Ok (acc, lsn) ->
        if lsn <> t.lsn then
          Error
            (Printf.sprintf "history: trail holds %d updates but lsn is %d" lsn t.lsn)
        else Ok acc
      | Error e -> Error e

    let available t = Result.is_ok (fold t ~init:() ~f:(fun () _ _ -> ()))

    let state_at t ~lsn =
      if lsn < 0 || lsn > t.lsn then
        Error (Printf.sprintf "history: lsn %d outside [0, %d]" lsn t.lsn)
      else
        match
          fold_all t ~init:(App.init ()) ~f:(fun state at u ->
              if at < lsn then App.apply state u else state)
        with
        | Ok (state, total) ->
          if total < lsn then Error "history: trail shorter than requested lsn"
          else Ok state
        | Error e -> Error e
  end

  let close t =
    if not t.closed then begin
      stop_scrubber t;
      Vlock.acquire t.lock Vlock.Update;
      (* a non-Io_error exception from the WAL close (e.g. an injected
         fault) must not strand the Update mode *)
      Fun.protect
        ~finally:(fun () -> Vlock.release t.lock Vlock.Update)
        (fun () ->
          t.closed <- true;
          try Wal.Writer.close t.wal with Fs.Io_error _ -> ())
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
end
