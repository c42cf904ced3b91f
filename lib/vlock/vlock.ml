module Metrics = Sdb_obs.Metrics

(* The protocol itself lives in Vlock_core (functored over its sync
   primitives so lib/schedcheck can model check the same algorithm);
   this module is the engine-facing instantiation on real threads, plus
   the two concerns the core deliberately omits: sanitizer reporting
   and wait/hold metrics. *)
module Core = Vlock_core.Make (Vlock_core.Thread_sync)

type mode = Vlock_core.mode = Shared | Update | Exclusive

type stats = Vlock_core.stats = {
  shared_acquisitions : int;
  update_acquisitions : int;
  exclusive_acquisitions : int;
  upgrades : int;
}

type t = {
  san : Sdb_check.lock;
  core : Core.t;
  (* acquisition timestamps for hold-time metrics (writer modes only:
     shared holders are concurrent, a single timestamp has no owner).
     Written by the holder at acquire, read and zeroed at release; the
     lock's own happens-before edge orders the accesses.  0.0 means "no
     stamp": a hold that began while the registry was disabled must
     observe nothing at release, whatever the registry says then. *)
  mutable upd_since : float;
  mutable excl_since : float;
}

let mode_label = function
  | Shared -> "shared"
  | Update -> "update"
  | Exclusive -> "exclusive"

let m_acquisitions mode =
  Metrics.counter "sdb_lock_acquisitions_total"
    ~help:"Lock acquisitions by mode."
    ~labels:[ ("mode", mode_label mode) ]

let m_wait mode =
  Metrics.histogram "sdb_lock_wait_seconds"
    ~help:"Time from requesting the lock to holding it, by mode."
    ~labels:[ ("mode", mode_label mode) ]

let m_hold mode =
  Metrics.histogram "sdb_lock_hold_seconds"
    ~help:"Time the lock was held, by mode (writer modes only)."
    ~labels:[ ("mode", mode_label mode) ]

let acq_shared = m_acquisitions Shared
let acq_update = m_acquisitions Update
let acq_exclusive = m_acquisitions Exclusive
let wait_shared = m_wait Shared
let wait_update = m_wait Update
let wait_exclusive = m_wait Exclusive
let hold_update = m_hold Update
let hold_exclusive = m_hold Exclusive

let m_upgrades =
  Metrics.counter "sdb_lock_upgrades_total"
    ~help:"Update-to-exclusive lock upgrades."

let san_mode = function
  | Shared -> Sdb_check.Shared
  | Update -> Sdb_check.Update
  | Exclusive -> Sdb_check.Exclusive

let create ?(name = "vlock") () =
  let san = Sdb_check.make_lock ~kind:`Vlock ("vlock:" ^ name) in
  let core = Core.create () in
  (* Let the sanitizer cross-check a claimed recursive read against the
     lock's own reader registry: nested Shared is verified ownership,
     not a blanket exemption. *)
  Sdb_check.set_reentry_probe san (fun () -> Core.shared_hold_count core > 0);
  { san; core; upd_since = 0.0; excl_since = 0.0 }

(* Wall clocks step backward; a negative duration would corrupt the
   percentile interpolation, so clamp every observation at zero. *)
let dur a b = Float.max 0.0 (b -. a)

let acquire t mode =
  (* Report to the sanitizer before blocking: its lock-order cycle
     check then fires before the deadlock it predicts can bite. *)
  Sdb_check.note_acquire t.san (san_mode mode);
  (* The timestamps exist only to feed the wait/hold histograms; skip
     the gettimeofday calls entirely when the registry is off. *)
  let timed = Metrics.is_enabled () in
  let t0 = if timed then Unix.gettimeofday () else 0.0 in
  (match Core.acquire t.core mode with
  | () -> ()
  | exception e ->
    (* The core unwound its waiter accounting; retract the optimistic
       note so the sanitizer does not believe we hold the lock. *)
    Sdb_check.note_release t.san (san_mode mode);
    raise e);
  if timed then begin
    let now = Unix.gettimeofday () in
    match mode with
    | Shared ->
      Metrics.incr acq_shared;
      Metrics.observe wait_shared (dur t0 now)
    | Update ->
      Metrics.incr acq_update;
      Metrics.observe wait_update (dur t0 now);
      t.upd_since <- now
    | Exclusive ->
      Metrics.incr acq_exclusive;
      Metrics.observe wait_exclusive (dur t0 now);
      t.excl_since <- now
  end

let release t mode =
  let timed = Metrics.is_enabled () in
  let now = if timed then Unix.gettimeofday () else 0.0 in
  Core.release t.core mode;
  (* Zero the stamp even when the registry is off at release: a stale
     stamp surviving here would be charged to the next hold if the
     registry is toggled mid-stream. *)
  (match mode with
  | Shared -> ()
  | Update ->
    if timed && t.upd_since > 0.0 then
      Metrics.observe hold_update (dur t.upd_since now);
    t.upd_since <- 0.0
  | Exclusive ->
    if timed && t.excl_since > 0.0 then
      Metrics.observe hold_exclusive (dur t.excl_since now);
    t.excl_since <- 0.0);
  Sdb_check.note_release t.san (san_mode mode)

let upgrade t =
  let timed = Metrics.is_enabled () in
  Core.upgrade t.core;
  let now = if timed then Unix.gettimeofday () else 0.0 in
  if timed && t.upd_since > 0.0 then
    Metrics.observe hold_update (dur t.upd_since now);
  t.upd_since <- 0.0;
  t.excl_since <- (if timed then now else 0.0);
  Sdb_check.note_upgrade t.san;
  Metrics.incr m_upgrades

let downgrade t =
  let timed = Metrics.is_enabled () in
  Core.downgrade t.core;
  let now = if timed then Unix.gettimeofday () else 0.0 in
  if timed && t.excl_since > 0.0 then
    Metrics.observe hold_exclusive (dur t.excl_since now);
  t.excl_since <- 0.0;
  t.upd_since <- (if timed then now else 0.0);
  Sdb_check.note_downgrade t.san

let with_lock t mode f =
  acquire t mode;
  Fun.protect ~finally:(fun () -> release t mode) f

let sanitizer t = t.san
(* Observability accessors: snapshot reads off the sanitizer path,
   safe to call from probes. *)
let readers t = Core.readers t.core [@@sdb.noblock]
let shared_hold_count t = Core.shared_hold_count t.core [@@sdb.noblock]
let update_held t = Core.update_held t.core [@@sdb.noblock]
let exclusive_held t = Core.exclusive_held t.core [@@sdb.noblock]
let upgrade_pending t = Core.upgrade_pending t.core [@@sdb.noblock]

let waiters t mode = Core.waiters t.core mode [@@sdb.noblock]
let stats t = Core.stats t.core [@@sdb.noblock]
