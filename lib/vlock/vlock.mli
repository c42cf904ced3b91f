(** The paper's three-mode lock (§3).

    Compatibility matrix:

    {v
                shared    update    exclusive
    shared      ok        ok        conflict
    update      ok        conflict  conflict
    exclusive   conflict  conflict  conflict
    v}

    An enquiry runs under a [shared] lock.  An update first takes the
    [update] lock (excluding other updates but {e not} enquiries),
    verifies its preconditions and commits its log entry to disk, then
    {!upgrade}s to [exclusive] only for the virtual-memory mutation.
    "These rules never exclude enquiry operations during disk
    transfers, only during virtual memory operations."

    A pending upgrade blocks {e first-time} shared acquisitions, so the
    upgrading updater cannot be starved by a stream of new readers.  A
    thread that already holds [Shared] may acquire [Shared] again and
    passes that gate: the lock keeps a per-thread reader-ownership
    registry, and a registered reader re-entering while an upgrade
    drains would otherwise deadlock both threads (the recursive-read
    hazard, closed here and verified exhaustively by
    [lib/schedcheck]).

    Ownership rules: [Shared] acquire/release must be paired {e on the
    holding thread} (the registry tracks per-thread hold counts).  The
    writer modes remain unowned — callers pair [acquire] and [release]
    correctly, possibly across threads — and
    {!upgrade}/{!downgrade} may only be called while holding the
    corresponding mode (use the [with_*] wrappers where possible).

    The protocol itself lives in {!Vlock_core}, functored over its
    synchronization primitives; this module instantiates it on real
    threads and layers on {!Sdb_check} reporting and metrics. *)

type t

type mode = Vlock_core.mode = Shared | Update | Exclusive

(** [create ?name ()] — [name] (default ["vlock"]) labels this
    instance's class in the {!Sdb_check} lock-order graph and in
    violation reports, as ["vlock:<name>"].  Give each database its
    application name so a report reads ["vlock:ns"], not ["vlock"]. *)
val create : ?name:string -> unit -> t
val acquire : t -> mode -> unit
val release : t -> mode -> unit

val upgrade : t -> unit
(** Convert a held [Update] lock to [Exclusive]; blocks until current
    readers drain while keeping new first-time readers out (registered
    readers may still re-enter — see the module description). *)

val downgrade : t -> unit
(** Convert a held [Exclusive] lock back to [Update]. *)

val with_lock : t -> mode -> (unit -> 'a) -> 'a
(** Acquire, run, release (also on exception). *)

(** Observability for tests, the E9 experiment, and the metrics layer.

    Every acquisition also feeds the process-wide {!Sdb_obs.Metrics}
    registry: [sdb_lock_acquisitions_total{mode}] and
    [sdb_lock_wait_seconds{mode}] for all three modes,
    [sdb_lock_hold_seconds{mode}] for the writer modes, and
    [sdb_lock_upgrades_total].  With the registry disabled the lock
    takes no timestamps; hold stamps are zeroed at release, so toggling
    the registry mid-hold records nothing rather than a duration
    measured from a previous hold. *)

val sanitizer : t -> Sdb_check.lock
(** The lock's handle in the {!Sdb_check} registry.  Engine code passes
    it to [Sdb_check.assert_mode] to declare the mode a touch point
    requires; every [acquire]/[release]/[upgrade]/[downgrade] already
    reports, so the assertion sees the true held mode.  {!create} also
    registers a re-entry probe with the sanitizer, so a nested Shared
    acquisition is cross-checked against the reader registry instead of
    being exempted. *)

val readers : t -> int

val shared_hold_count : t -> int
(** The calling thread's Shared hold count on this lock (0 if it holds
    none) — the reader-ownership registry entry that lets it re-enter
    past a pending upgrade. *)

val update_held : t -> bool
val exclusive_held : t -> bool

val upgrade_pending : t -> bool
(** An upgrader (or an [Exclusive] acquirer in its drain phase) has
    gated new readers and is waiting for current ones to leave. *)

val waiters : t -> mode -> int
(** Number of threads currently blocked inside {!acquire} for the given
    mode.  An upgrading exclusive acquirer counts as an [Exclusive]
    waiter until it holds the lock.  (Threads blocked in {!upgrade}
    itself are not counted: they already hold [Update].  A nested
    Shared re-entry never blocks, so it never counts.) *)

type stats = Vlock_core.stats = {
  shared_acquisitions : int;
  update_acquisitions : int;
  exclusive_acquisitions : int;
  upgrades : int;
}

val stats : t -> stats
