(** Structured tracing: named spans with start time, duration, and
    key/value attributes, delivered to a pluggable sink.

    Span names are a public interface (tests and dashboards match on
    them); the taxonomy used by the engine is documented in DESIGN.md.
    A span is emitted once, when it {e completes} — sinks therefore see
    spans in completion order, which for the engine's sequential update
    path is also phase order.

    Tracing is off by default ([set_sink None]): instrumented code
    guards its span bookkeeping behind {!active}, so an untraced process
    pays one atomic load per potential span. *)

type span = {
  name : string;
  start_s : float;  (** [Unix.gettimeofday] at span start *)
  dur_s : float;    (** duration in seconds *)
  attrs : (string * string) list;
}

type sink = span -> unit
(** Sinks must be thread-safe; spans from concurrent operations may
    arrive from different threads. *)

val set_sink : sink option -> unit
(** Install the process-wide sink, or [None] to disable tracing. *)

val active : unit -> bool
(** [true] iff a sink is installed.  Check this before doing work whose
    only purpose is producing a span (building attrs, timestamps). *)

val span : ?attrs:(string * string) list -> string -> start_s:float -> dur_s:float -> unit
(** [emit] for call sites that already hold the two timestamps. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Time the thunk and emit the span when it returns.  If the thunk
    raises, the span is still emitted with an added
    [("error", exception)] attribute, and the exception is re-raised.
    When tracing is inactive the thunk runs untimed. *)

(** {1 Per-request context}

    A request-handling thread tags itself with a request id for the
    duration of one request; every span emitted from that thread (by
    any layer it calls into) then carries a [("req", id)] attribute.
    Filtering a sink's output on one id decomposes that request into
    its phases — rpc handling, commit-coordinator join, WAL flush,
    apply.  Spans emitted on behalf of a whole commit group (the
    leader's flush/apply) carry the {e leader's} id plus a
    [group_size] attribute. *)

val with_request : string -> (unit -> 'a) -> 'a
(** Run the thunk with the calling thread's request context set to the
    given id (restoring the previous context after, so nesting works).
    A no-op wrapper when tracing is inactive. *)

val request : unit -> string option
(** The calling thread's request id, if tracing is active and the
    thread is inside {!with_request}.  Work done for this request on
    another thread passes it as an explicit [("req", id)] attribute,
    which {!span} keeps. *)

(** {1 Sinks} *)

val tee : sink list -> sink
[@@sdb.check.allow
  "dead-export: library surface: a sink combinator for embedding \
   programs; test_obs calls it"]
(** Deliver every span to each sink in order (e.g. the slow-span ring
    plus a jsonl file). *)

val jsonl_sink : out_channel -> sink
[@@sdb.check.allow
  "dead-export: library surface: the JSONL span sink for embedding \
   programs; test_obs calls it"]
(** One JSON object per line:
    [{"name":"update.log","start_s":…,"dur_s":…,"attrs":{…}}].
    Flushes after every span so a crash loses at most the in-flight
    line.  The caller owns the channel. *)

module Ring : sig
  (** A bounded in-memory span buffer: keeps the most recent
      [capacity] spans, oldest first. *)

  type t

  val create : capacity:int -> t
  [@@sdb.check.allow
    "dead-export: test hook: the suites capture spans in a ring to \
     assert on them"]
  val sink : t -> sink
  [@@sdb.check.allow
    "dead-export: test hook: the suites capture spans in a ring to \
     assert on them"]
  val contents : t -> span list
  [@@sdb.check.allow
    "dead-export: test hook: the suites capture spans in a ring to \
     assert on them"]
  (** Oldest-to-newest; at most [capacity] spans (older ones are
      truncated away). *)

  val recent : ?min_dur_s:float -> max_n:int -> t -> span list
  [@@sdb.check.allow
    "dead-export: test hook: the suites capture spans in a ring to \
     assert on them"]
  (** The most recent (up to) [max_n] spans with duration at least
      [min_dur_s] (default 0), newest first. *)

  val clear : t -> unit
  [@@sdb.check.allow
    "dead-export: test hook: the suites capture spans in a ring to \
     assert on them"]
end

module Slow : sig
  (** The process-global slow-span ring: bounded memory for "what was
      slow recently?", queryable without a tracing pipeline (the name
      server exposes it over the [traces] RPC verb). *)

  val install : capacity:int -> threshold_s:float -> sink
  (** Create a fresh ring, register it as the process-global slow-span
      ring (replacing any previous one), and return a sink that keeps
      only spans of duration ≥ [threshold_s].  The sink still has to
      be put in place with {!set_sink}, alone or under {!tee}. *)

  val recent : ?min_dur_s:float -> max_n:int -> unit -> span list
  (** The most recent (up to) [max_n] retained spans with duration at
      least [min_dur_s], newest first; [[]] when no ring is
      installed. *)
end
