(** Runtime lock-discipline sanitizer (§5 of DESIGN.md).

    The engine's correctness story rests on lock discipline: enquiries
    run under [Shared], updates verify and log under [Update], and
    virtual-memory mutation happens only under [Exclusive]; the
    auxiliary mutexes (group-commit coordinator, replica outboxes, RPC
    queues) each guard a declared set of fields and are never held
    across blocking I/O.  This module is the opt-in debug registry that
    {e verifies} those invariants while the ordinary test suite and the
    chaos sweeps run:

    - every instrumented lock reports acquisitions and releases, giving
      a per-thread stack of held (lock, mode) pairs;
    - mutation sites assert the mode they require ({!assert_mode});
    - I/O sites assert that no plain mutex is held
      ({!assert_no_mutex_held_during_io});
    - fields declare their guard ({!Guarded}) and every access checks
      it;
    - every {e nested} acquisition records a class-level edge in a
      lock-order graph; an edge that closes a cycle — a potential
      deadlock — fails fast with the acquisition stacks of both sides.

    Enabled via [SDB_SANITIZE=1] in the environment (read once at
    start-up) or programmatically with {!set_enabled}.  Disabled (the
    default), every entry point is a single atomic load and branch, so
    instrumented code pays no measurable cost.

    The registry is process-global and fail-fast: a violation raises
    {!Violation} at the offending call site and is also retained for
    {!violations}, so a worker thread that dies on one still fails the
    test that spawned it. *)

type mode = Shared | Update | Exclusive | Mutex
(** The three Vlock modes plus plain mutual exclusion.  For
    {!assert_mode}, strength is ordered [Shared < Update < Exclusive]:
    holding [Exclusive] satisfies a requirement for [Update] or
    [Shared], holding [Update] satisfies [Shared].  [Mutex] is its own
    kind and is never compared by strength. *)

type violation = {
  v_rule : string;
      (** ["lock-order"], ["mode"], ["guard"], ["io"], ["nesting"] *)
  v_message : string;
  v_stacks : (string * string) list;
      (** Labelled call stacks: always the offending site, plus — for a
          lock-order cycle — the first-recorded stack of every edge on
          the pre-existing return path. *)
}

exception Violation of violation

(** {1 Enabling} *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
[@@sdb.check.allow
  "dead-export: test hook: suites clear the sanitizer state between \
   cases"]
(** Clear all per-thread state, the lock-order graph, the retained
    violations and the counters (the enabled flag is kept).  For
    tests. *)

(** {1 Locks} *)

type lock
(** An instrumented lock {e instance}.  Each instance belongs to a
    {e class} named at creation; the lock-order graph and its cycle
    check work on classes (as in lockdep), so two peers' outbox mutexes
    — same class, different instances — are ordered as one node. *)

val make_lock : ?kind:[ `Vlock | `Mutex ] -> string -> lock
(** A new instance of class [name].  [`Mutex] instances are what
    {!assert_no_mutex_held_during_io} looks for; [`Vlock] instances
    carry [Shared]/[Update]/[Exclusive] modes. *)

val note_acquire : lock -> mode -> unit
(** Record that the calling thread is acquiring [lock].  Call {e
    before} blocking on the real primitive: the cycle check then fires
    before the deadlock it predicts can bite.  Raises {!Violation} on a
    lock-order cycle or on nested acquisition within one class (which
    includes re-acquiring the same instance).  The one legal nesting is
    the recursive read — [Shared] on a [`Vlock] instance the thread
    already holds [Shared]; when the lock registered a
    {!set_reentry_probe}, that claim is verified against the lock's own
    reader registry and a mismatch is a ["nesting"] violation. *)

val set_reentry_probe : lock -> (unit -> bool) -> unit
(** Register the lock's own answer to "does the calling thread hold me
    Shared?".  The Vlock installs its reader-ownership registry here at
    creation, turning the nested-read allowance from an exemption into
    a cross-checked fact.  Probes are per-instance and survive
    {!reset}. *)

val note_release : lock -> mode -> unit

val note_upgrade : lock -> unit
(** A held [Update] becomes [Exclusive] in place. *)

val note_downgrade : lock -> unit

(** {1 Assertions} *)

val assert_mode : lock -> mode -> site:string -> unit
(** The calling thread must hold [lock] in at least [mode] (see
    {!mode} for the strength order).  No-op when disabled. *)

val assert_no_mutex_held_during_io : site:string -> unit
(** The calling thread must hold no [`Mutex]-kind instrumented lock:
    blocking I/O (a log write, an fsync, an RPC) under a mutex is how
    one slow disk stalls every thread behind that mutex.  Vlock modes
    are {e allowed} — the paper's design deliberately writes the log
    under [Update]. *)

(** {1 Instrumented mutex} *)

module Mu : sig
  (** A [Mutex.t] that reports to the registry.  Drop-in for the
      lock/unlock pattern; {!wait} waits on a condition with the
      underlying mutex (the registry keeps treating the lock as held
      across the wait, which is the convention lock-order analysis
      wants: the waiter resumes holding it). *)

  type t

  val make : ?kind:[ `Vlock | `Mutex ] -> string -> t
  (** A fresh instance of class [name] ({!make_lock}); share the class
      name across instances of one family. *)

  val lock : t -> unit
  val try_lock : t -> bool
  (** Lock without waiting: [false], with nothing taken, when another
      thread holds it.  A taken lock is recorded as held (the release
      is {!unlock}); it adds no lock-order edge, since a try never
      waits. *)

  val unlock : t -> unit

  val with_lock : t -> (unit -> 'a) -> 'a
  (** Lock, run, unlock (also on exception). *)

  val wait : Condition.t -> t -> unit
  (** [Condition.wait] on [c] with [t]'s underlying mutex. *)

end

(** {1 Guarded fields} *)

module Guarded : sig
  (** A mutable cell that declares its guard: every read and write
      asserts (when enabled) that the calling thread holds the given
      {!Mu.t}.  This is how the group-commit coordinator's shared state
      and the replica outboxes make their locking contract checkable
      instead of a comment. *)

  type 'a t

  val create : by:Mu.t -> name:string -> 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
end

(** {1 Counters and reports} *)

type stats = {
  checks : int;  (** assertions + acquisition notes processed *)
  violations : int;
  max_lock_depth : int;  (** deepest per-thread hold stack observed *)
}

val stats : unit -> stats

val violations : unit -> violation list
[@@sdb.check.allow
  "dead-export: test hook: the sanitizer suite reads the retained \
   violations"]
(** Every violation raised since start (or {!reset}), oldest first. *)

val lock_order_edges : unit -> (string * string) list
[@@sdb.check.allow
  "dead-export: test hook: the sanitizer suite compares the observed \
   lock-order graph"]
(** The observed class-level lock-order graph, as (held, acquired)
    pairs — the DAG documented in DESIGN.md §5 is this list. *)
