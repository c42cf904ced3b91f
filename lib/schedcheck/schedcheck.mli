(** Deterministic schedule exploration for the engine's critical
    sections (DESIGN.md §5.3).

    The sanitizer ({!Sdb_check}) checks the schedules that actually
    run; this harness checks the ones the suite never hits.  A scenario
    is a handful of modeled threads written against virtual
    synchronization primitives ({!Mutex}, {!Cond}, and
    [Vlock_core.Make] over {!module-Sync} in [Scenarios]).  Every
    blocking operation is a {e scheduling point}; the explorer runs the
    scenario to completion once per schedule, backtracking depth-first
    over every choice of runnable thread, so the bounded interleaving
    space is enumerated exhaustively — dscheck-style stateless model
    checking, with replay.

    Detected per execution:
    - {b deadlock}: no thread is runnable but some have not finished;
    - {b invariant violation}: the scenario's invariant (checked after
      every scheduling step) or finale (checked once all threads
      completed) raised, or a modeled thread itself raised;
    - {b bound overrun}: an execution exceeded [max_steps] (a livelock,
      or a model that needs a smaller scenario).

    A failure report carries the schedule — the exact sequence of
    choices — and a human-readable trace; {!replay} re-runs a schedule
    deterministically, so a red run is a reproducible artifact, not a
    flake. *)

(** {1 Writing scenarios} *)

type scenario = {
  sc_threads : (string * (unit -> unit)) list;
      (** Modeled threads, started in order.  Code before a thread's
          first scheduling point runs at spawn; put synchronization
          first if it matters. *)
  sc_invariant : unit -> unit;
      (** Called from the scheduler after every step; raise to flag a
          violation.  Runs outside any modeled thread: use unlocked
          inspection (e.g. [Vlock_core]'s [inspect]), never a virtual
          primitive. *)
  sc_finale : unit -> unit;
      (** Called once when every thread has completed; raise to flag a
          violation (e.g. a member without an outcome, non-dense
          LSNs). *)
}

val scenario :
  ?invariant:(unit -> unit) ->
  ?finale:(unit -> unit) ->
  (string * (unit -> unit)) list ->
  scenario

val self : unit -> int
(** The running modeled thread's id (its index in [sc_threads]).  Only
    meaningful inside a modeled thread. *)

val yield : string -> unit
(** A pure scheduling point: lets every interleaving around this
    program point be explored.  The label shows up in traces. *)

val step : ?enabled:(unit -> bool) -> ?run:(unit -> unit) -> string -> unit
(** The primitive under {!yield} and the virtual mutex: a scheduling
    point that blocks while [enabled] is false and runs [run]
    atomically when scheduled.  Lets a scenario build its own guarded
    hand-offs (e.g. a phase that must wait for every other thread to
    drain) without spin loops that would blow up the schedule space. *)

(** Virtual mutex: [lock] is a scheduling point that blocks while the
    owner is another thread; [unlock] is immediate (an unlock commutes
    with every other thread's next step, so yielding there would only
    multiply equivalent schedules). *)
module Mutex : sig
  type t

  val create : string -> t
  val lock : t -> unit
  val unlock : t -> unit

  val atomically : t -> string -> (unit -> unit) -> unit
  (** [lock]; run; [unlock] as {e one} scheduling point.  Sound for a
      critical section that contains no blocking operation and touches
      only state guarded by this mutex — which is exactly the shape of
      the engine's short sections — and keeps the schedule space small
      enough to exhaust. *)
end

(** Virtual condition variable with broadcast semantics and no spurious
    wakeups (the conservative choice when hunting missed-wakeup
    deadlocks). *)
module Cond : sig
  type t

  val create : string -> t

  val wait : t -> Mutex.t -> unit
  (** Atomically release the mutex and park; re-acquiring after
      {!broadcast} is a scheduling point contended like any lock. *)

  val broadcast : t -> unit
end

(** {1 Exploring} *)

type trace_entry = { te_tid : int; te_thread : string; te_label : string }

type report = {
  r_schedule : int list;  (** choice indices; feed back into {!replay} *)
  r_trace : trace_entry list;
  r_blocked : (int * string) list;
      (** threads alive at the end (deadlock reports only) *)
}

type outcome =
  | Passed of { executions : int }
      (** Every schedule in the bounded space ran to completion with
          the invariant and finale holding. *)
  | Deadlocked of report
  | Violated of { exn_text : string; report : report }
  | Step_bound_exceeded of report
  | Schedule_bound_exceeded of { executions : int }

val explore :
  ?max_schedules:int ->
  (* default 200_000 *)
  ?max_steps:int ->
  (* default 20_000 per execution *)
  ?max_preemptions:int ->
  (* default unbounded *)
  (unit -> scenario) ->
  outcome
(** [explore make] runs [make ()] once per schedule (state must be
    created inside [make] so each execution starts fresh) and searches
    the interleaving space depth-first.  Deterministic: same scenario,
    same outcome, same counts.

    [max_preemptions] bounds the space to the schedules that switch away
    from a thread able to go on at most that many times (switches at a
    blocked or finished thread are free); [Passed] then means every such
    schedule passed.  Spaces too large to exhaust stay checkable this
    way, and most concurrency bugs need only a few preemptions. *)

val replay :
  ?max_preemptions:int -> (unit -> scenario) -> schedule:int list -> outcome * trace_entry list
(** Re-run one schedule (typically [report.r_schedule] from a failure,
    with the bound it was explored under) and return its outcome plus
    the full trace. *)

val pp_outcome : outcome -> string
(** Multi-line rendering: verdict, schedule, and trace. *)
