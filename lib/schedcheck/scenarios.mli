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

val recursive_read : unit -> Schedcheck.scenario
[@@sdb.check.allow
  "dead-export: schedcheck scenario: test_schedcheck explores it"]
(** One reader taking a nested Shared hold, racing one
    update-then-upgrade writer: the nested acquisition must pass a
    pending upgrade (parking it would deadlock both threads), so the
    bounded space passes exhaustively. *)

val fresh_reader_gate : unit -> Schedcheck.scenario
[@@sdb.check.allow
  "dead-export: schedcheck scenario: test_schedcheck explores it"]
(** A registered reader re-entering {e and} a first-time reader, racing
    an upgrader: re-entry must pass the pending-upgrade gate, a
    first-time acquisition must not be admitted while the upgrade
    drains. *)

val upgrade_vs_readers : readers:int -> unit -> Schedcheck.scenario
[@@sdb.check.allow
  "dead-export: schedcheck scenario: test_schedcheck explores it"]
(** Readers observing a two-step mutation that the writer performs
    under Exclusive (after the §3 update-then-upgrade dance): no torn
    observation in any interleaving, no deadlock, registry in sync. *)

val upgrade_vs_readers_broken : unit -> Schedcheck.scenario
[@@sdb.check.allow
  "dead-export: schedcheck scenario: test_schedcheck explores it"]
(** Detector of the detector: the writer mutates under Update without
    upgrading.  The explorer must find a schedule where a reader
    observes the torn intermediate state. *)

val group_commit :
  ?grouped:bool ->
  ?checks_at_base:bool ->
  ?inserts:int ->
  ?raising:int ->
  ?raising_precondition:int ->
  ?rounds:int ->
  ?observe:(string -> unit) ->
  updaters:int ->
  unit ->
  Schedcheck.scenario
[@@sdb.check.allow
  "dead-export: schedcheck scenario: test_schedcheck explores it"]
(** The commit pipeline (DESIGN.md §4d): [updaters] threads commit
    through the shipped coordinator over the virtual lock, the last
    [inserts] of them (default 0) as checked "insert if absent" updates
    on one key, the rest unconditionally.  Every update joins groups
    alike; the modeled fold checks each precondition against the state
    folded so far.  Updater 0 commits [rounds] times (default 1) with a
    pause between commits, the others once.  With [grouped] (the
    default, [group_commit = true]) updaters join forming groups, and
    once updater 0 has joined twice the coordinator knows its gap, so a
    leader may linger for it — also after it has finished and never
    comes back; without it every commit is a group of one.  Checks: at
    most one group between log write and notification (commit-slot
    exclusivity), Update held for the fold and the flush and Exclusive
    for the publish, one flush per group that admitted anyone and none
    for a group that admitted nobody, every linger within
    [max_group_delay], dense LSNs, notifications in LSN order, every
    updater returned, lock and coordinator drained, exactly one insert
    committed, every precondition saw exactly the commits staged
    before it, and a refused updater returned only once those were
    published.  With [raising = i], the fold of any group holding
    updater [i] raises: that group is neither flushed nor published and
    every one of its members returns the fold's exception, while other
    groups commit.  With [raising_precondition = i], updater [i]'s
    precondition raises: only it fails, with that exception, and the
    rest of its group commits.  [checks_at_base:true] checks every
    precondition against the state before its group instead (a seeded
    bug): the explorer must find two inserts committing.  [observe] is
    told the shapes each execution reached (["group of N"] per flush,
    ["fold raised in a group of N"], ["refused in a group of N"],
    ["precondition raised in a group of N"], ["prepared while a group
    of 2+ commits"] for an update that forms the next group while a
    sealed one is still committing, and for a leader that lingered
    ["lingered, then a group of N"], ["lingered for a caller that never
    came back, committed alone"] or ["lingered, committed alone"]), so
    a run can assert its coverage. *)

val replica_outbox : pushes:int -> capacity:int -> unit -> Schedcheck.scenario
[@@sdb.check.allow
  "dead-export: schedcheck scenario: test_schedcheck explores it"]
(** The bounded per-peer outbox hand-off ([lib/replica]): a committer
    enqueues (dropping on overflow) and wakes the sender; the sender
    drains, sending outside the mutex, and must observe the stop flag.
    Checks: FIFO delivery, delivered + dropped = pushed, clean
    shutdown in every interleaving (a missed wakeup shows up as a
    deadlock). *)

val failure_detector : probes:bool list -> unit -> Schedcheck.scenario
[@@sdb.check.allow
  "dead-export: schedcheck scenario: test_schedcheck explores it"]
(** The replica failure detector ([Sdb_replica.Detector] — the shipped
    code, not a model): a prober running the scripted heartbeat
    outcomes (with a scheduling point while each probe is in flight)
    races a ticker advancing virtual time.  Checks, in every
    interleaving: the only transitions into [Alive] are probe
    successes (a dead peer never revives by aging), aging and failures
    strictly demote (suspicion is never lost while a probe is in
    flight), and a run whose last recorded outcome is not a success
    does not end [Alive]. *)
