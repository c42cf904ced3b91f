(** The engine's small critical sections, modeled for {!Schedcheck}.

    Each function builds a fresh scenario per call (explorations re-run
    it once per schedule).  The lock scenarios run the {e real}
    protocol — [Sdb_vlock.Vlock_core.Make] instantiated over the harness's
    virtual primitives — and the group-commit scenario the real commit
    coordinator, [Sdb_commit.Commit_core.Make] over the same primitives
    and that virtual lock: what is exhausted here is the code the
    engine ships.  The replica-outbox scenario is a small faithful
    model of the sender-thread hand-off in [lib/replica]. *)

module Vsync : sig
  include Sdb_vlock.Vlock_core.SYNC

  include
    Sdb_commit.Commit_core.MU with type t = mutex and type cond := cond
end
(** {!Sdb_vlock.Vlock_core.SYNC} and {!Sdb_commit.Commit_core.MU} over
    the harness's virtual mutex/cond/self, with a virtual clock. *)

module V : Sdb_vlock.Vlock_core.S
(** The engine's lock protocol under the virtual scheduler. *)

val recursive_read : legacy:bool -> unit -> Schedcheck.scenario
(** One reader taking a nested Shared hold, racing one
    update-then-upgrade writer.  With [legacy:true] (the pre-fix gate:
    every Shared acquisition parks behind a pending upgrade) the
    explorer finds the recursive-read deadlock; with [legacy:false] the
    bounded space passes exhaustively. *)

val fresh_reader_gate : unit -> Schedcheck.scenario
(** A registered reader re-entering {e and} a first-time reader, racing
    an upgrader: re-entry must pass the pending-upgrade gate, a
    first-time acquisition must not be admitted while the upgrade
    drains. *)

val upgrade_vs_readers : readers:int -> unit -> Schedcheck.scenario
(** Readers observing a two-step mutation that the writer performs
    under Exclusive (after the §3 update-then-upgrade dance): no torn
    observation in any interleaving, no deadlock, registry in sync. *)

val upgrade_vs_readers_broken : unit -> Schedcheck.scenario
(** Detector of the detector: the writer mutates under Update without
    upgrading.  The explorer must find a schedule where a reader
    observes the torn intermediate state. *)

val group_commit :
  ?grouped:bool ->
  ?checked_joins:bool ->
  ?inserts:int ->
  ?observe:(string -> unit) ->
  updaters:int ->
  unit ->
  Schedcheck.scenario
(** The commit pipeline (DESIGN.md §4d): [updaters] threads commit
    through the shipped coordinator over the virtual lock, the first
    [inserts] of them (default 0) as checked "insert if absent" updates
    on one key, the rest unconditionally.  With [grouped] (the default,
    [group_commit = true]) unconditional updaters join forming groups;
    without it every commit is a group of one.  Checks: at most one
    group between log write and notification (commit-slot
    exclusivity), Update held for the flush and Exclusive for the
    apply, one flush per group, dense LSNs, notifications in LSN
    order, every updater returned, lock and coordinator drained, and
    exactly one insert committed.  [checked_joins:true] lets checked
    inserts join groups, the pre-fix protocol: the explorer must then
    find two inserts committing.  [observe] is told the shapes each
    execution reached (["group of N"] per flush, ["prepared while a
    group of 2+ commits"] for an update that forms the next group while
    a sealed one is still committing), so a preemption-bounded run can
    assert its coverage. *)

val replica_outbox : pushes:int -> capacity:int -> unit -> Schedcheck.scenario
(** The bounded per-peer outbox hand-off ([lib/replica]): a committer
    enqueues (dropping on overflow) and wakes the sender; the sender
    drains, sending outside the mutex, and must observe the stop flag.
    Checks: FIFO delivery, delivered + dropped = pushed, clean
    shutdown in every interleaving (a missed wakeup shows up as a
    deadlock). *)

val epoch_readers : publishes:int -> unit -> Schedcheck.scenario
(** The lock-free read path's reclamation protocol
    ([Sdb_epoch.Epoch_core.Make] — the shipped code, over virtual
    atomics): one reader entering its epoch, loading the published
    version and using it across a scheduling point, racing a writer
    that publishes [publishes] fresh versions (retiring and reclaiming
    as the engine's Exclusive window does).  Checks, in every
    interleaving: no torn read (a version is observed whole or not at
    all), payload consistent with the version's LSN, no use-after-retire
    (a version is never reclaimed while a reader that loaded it is
    still inside its epoch), and — once the reader drains — one final
    sweep reclaims every retired version. *)

val epoch_shared_slot : unit -> Schedcheck.scenario
(** Two readers sharing one reader slot (the counted-registration path:
    the second enter piggybacks on the first's — possibly older —
    epoch), racing one publish.  Exhausts the enter/exit counting
    against concurrent retirement: one reader loads and checks its
    version, the other races pure enter/exit bracketing. *)

val epoch_broken_reclaim : unit -> Schedcheck.scenario
(** Detector of the detector: the writer frees retired versions without
    honouring the reader slots ([unsafe_reclaim_all]).  The explorer
    must find a schedule where a reader still inside its epoch observes
    its version reclaimed. *)

val epoch_broken_mutation : unit -> Schedcheck.scenario
(** Detector of the detector, torn-read edition: the writer mutates the
    published payload in place instead of publishing a fresh immutable
    version.  The explorer must find a schedule where a reader observes
    the half-written state. *)

val failure_detector : probes:bool list -> unit -> Schedcheck.scenario
(** The replica failure detector ([Sdb_replica.Detector] — the shipped
    code, not a model): a prober running the scripted heartbeat
    outcomes (with a scheduling point while each probe is in flight)
    races a ticker advancing virtual time.  Checks, in every
    interleaving: the only transitions into [Alive] are probe
    successes (a dead peer never revives by aging), aging and failures
    strictly demote (suspicion is never lost while a probe is in
    flight), and a run whose last recorded outcome is not a success
    does not end [Alive]. *)
