(** The lock protocol itself, functored over its synchronization
    primitives.

    The algorithm (the paper's three-mode lock plus the reader-ownership
    registry that makes nested Shared acquisitions safe under a pending
    upgrade) lives here, written against {!SYNC} — a mutex, a condition
    variable, and a thread identity.  Two instantiations exist:

    - {!Thread_sync}: the real systhreads primitives.  {!Vlock} wraps
      this instantiation with metrics and sanitizer instrumentation; it
      is what the engine runs.
    - [Sdb_schedcheck.Scenarios.Vsync]: the schedule-exploration
      harness's virtual primitives, where every lock/wait/wake is a
      scheduling point under a deterministic cooperative scheduler.
      This is how {e the same code} that runs in production is model
      checked across bounded interleavings.

    Keeping one copy of the protocol is the point: a fix proven by the
    harness is the fix the engine ships, not a vendored model of it. *)

module type SYNC = sig
  type mutex
  type cond

  val make_mutex : unit -> mutex
  val make_cond : unit -> cond
  val lock : mutex -> unit
  val unlock : mutex -> unit

  val wait : cond -> mutex -> unit
  (** Atomically release the mutex and park until {!broadcast}; the
      mutex is re-held on return.  May raise (an async interrupt, a
      simulated fault): the protocol unwinds its waiter accounting and
      re-raises. *)

  val broadcast : cond -> unit

  val self : unit -> int
  (** Identity of the calling thread — the key of the reader-ownership
      registry.  Must be stable for the duration of a hold. *)
end

type mode = Shared | Update | Exclusive

type stats = {
  shared_acquisitions : int;
  update_acquisitions : int;
  exclusive_acquisitions : int;
  upgrades : int;
}

type inspection = {
  i_readers : int;
  i_update : bool;
  i_exclusive : bool;
  i_upgrade_pending : bool;
  i_hold_sum : int;  (** sum of all per-thread shared hold counts *)
}

module type S = sig
  type t

  val create : unit -> t

  val acquire : t -> mode -> unit
  val release : t -> mode -> unit
  val upgrade : t -> unit
  val downgrade : t -> unit

  val readers : t -> int
  val shared_hold_count : t -> int
  (** The calling thread's entry in the reader-ownership registry: how
      many Shared holds it currently has on this lock (0 if none). *)

  val update_held : t -> bool
  val exclusive_held : t -> bool
  val upgrade_pending : t -> bool
  val waiters : t -> mode -> int
  val stats : t -> stats

  val inspect : t -> inspection
  (** Read every protocol field {e without} taking the internal mutex.
      For schedule-exploration invariants (which run from the scheduler,
      outside any modeled thread, where taking a virtual mutex is
      meaningless) and post-mortem debugging.  Under real threads the
      fields may be mid-change; do not build logic on it. *)
end

module Make (Sync : SYNC) : S

module Thread_sync : SYNC
(** The real primitives: [Mutex], [Condition], [Thread.id]. *)
