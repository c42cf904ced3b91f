(** Latency SLOs: declare a target like "p99 ≤ 25 ms", feed it request
    latencies, and read back error-budget burn over a sliding window.

    A target is a latency {e objective} plus an error {e budget}: every
    request slower than the objective — or failing outright — is a bad
    event, and the SLO holds while the bad fraction over the window
    stays within the budget.  [budget = 0.01] therefore means "99% of
    requests within the objective", i.e. p99 ≤ objective; [0.001]
    means p999.

    The window is a ring of fixed-width buckets rotated by wall-clock
    time: memory is constant regardless of request rate, and old
    traffic ages out one bucket at a time.  An empty window passes
    vacuously.  Clock steps are handled conservatively: a backward
    step never rotates (no history is dropped), and a forward step of
    a whole window or more empties every bucket.

    All operations are thread-safe; {!record} is a mutex-protected
    pair of integer increments.  *)

type t

type report = {
  r_name : string;
  r_total : int;        (** requests observed in the window *)
  r_bad : int;          (** of which over the objective, or failed *)
  r_bad_fraction : float;  (** [r_bad / r_total], 0 on an empty window *)
  r_budget : float;
  r_burn : float;       (** [r_bad_fraction / r_budget]; 1.0 = burning
                            exactly at budget, above 1.0 = violating *)
  r_pass : bool;        (** [r_bad_fraction <= r_budget] *)
  r_window_s : float;   (** width of the sliding window *)
}

val create :
  ?now:(unit -> float) ->
  ?window_s:float ->
  ?buckets:int ->
  name:string ->
  objective_ms:float ->
  budget:float ->
  unit ->
  t
(** A fresh SLO tracker.  [window_s] (default 60) is the sliding
    window, split into [buckets] (default 6) rotating buckets — the
    granularity at which old traffic expires.  [now] (default
    [Unix.gettimeofday]) is injectable for tests.  Raises
    [Invalid_argument] unless [objective_ms > 0], [budget] is in
    (0,1), and the window/bucket shape is positive. *)

val record : t -> float -> unit
(** Observe one request's latency in {e seconds} (the unit every
    engine histogram uses); it burns budget iff above the objective. *)

val record_failure : t -> unit
(** Observe a failed request: always burns budget. *)

val report : t -> report

val objective_ms : t -> float

val expose : t -> unit
[@@sdb.check.allow
  "dead-export: library surface: publishes the SLO gauges for an \
   embedding server; test_slo calls it"]
(** Register a {!Metrics.register_collector} pull hook (named
    ["slo:<name>"], so re-creating an SLO of the same name replaces
    it) that refreshes the [sdb_slo_*] gauges — burn rate, bad
    fraction, window request count, compliance, objective and budget,
    all labelled [{slo="<name>"}] — before every metrics render. *)
