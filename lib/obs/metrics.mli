(** A process-wide metrics registry: named counters, gauges, and
    label-tagged latency histograms.

    Every metric belongs to a {e family} (its name, e.g.
    ["sdb_update_phase_seconds"]) and is distinguished within the family
    by its label set (e.g. [("phase", "verify")]).  Requesting the same
    name and labels twice returns the same underlying metric, so
    instrumentation sites can call {!counter}/{!gauge}/{!histogram}
    freely without coordinating ownership.  Requesting a name that
    already exists with a different metric kind raises
    [Invalid_argument]: a family has exactly one kind.

    The registry is cheap enough to leave on in the hot path, and no
    recording call takes a mutex: a counter increment is one atomic
    fetch-and-add, a gauge set one atomic store.  A histogram keeps a
    fixed set of log-linear buckets (8 per power of two over
    [\[2^-32, 2^32)], one more below and one above: 514 in all), so its
    memory does not grow with the number of observations; recording one
    is a fetch-and-add on the sample's bucket plus compare-and-set
    updates of the exact sum, min and max.  {!set_enabled}[ false] turns every
    mutation into a single atomic load and branch, so instrumented code
    needs no conditional of its own.  Use {!is_enabled} only to skip
    {e extra} work (such as calling [Unix.gettimeofday] to produce a
    sample); never to guard a plain [incr].

    All operations are thread-safe. *)

type labels = (string * string) list

type counter
type gauge
type histogram

val set_enabled : bool -> unit
[@@sdb.check.allow
  "dead-export: test hook: suites check that a disabled registry \
   records nothing"]
(** Globally enable (default) or disable recording.  Disabled, every
    [incr]/[add]/[set_gauge]/[observe] is a no-op; reads and {!render}
    still work and show the last recorded values. *)

val is_enabled : unit -> bool

(** {1 Creation (idempotent per name + labels)} *)

val counter : ?help:string -> ?labels:labels -> string -> counter
val gauge : ?help:string -> ?labels:labels -> string -> gauge
val histogram : ?help:string -> ?labels:labels -> string -> histogram

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Counters are monotone: [add] with a negative amount raises
    [Invalid_argument]. *)

val set_gauge : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {1 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> float
[@@sdb.check.allow
  "dead-export: a reference the obs and replica suites compare \
   gauges against"]
val histogram_snapshot : histogram -> Sdb_util.Histogram.snapshot
(** Count, sum, mean, min and max are exact.  The quantiles are
    estimates: the midpoint of the bucket holding the sample nearest
    the quantile's rank, clamped to [\[min, max\]], within 6.25% of
    that sample.  Samples below [2^-32] (zero among them) read as the
    min, samples of [2^32] and above as the max.  O(buckets), no sort;
    a snapshot taken while other threads record may count a sample in
    the sum before it shows in the count. *)

val summaries : unit -> (string * labels * Sdb_util.Histogram.snapshot) list
(** Every histogram series in the registry as
    [(family, labels, snapshot)], sorted by family then labels — the
    data behind a human-readable percentile table (sdb_inspect,
    sdb_top) without parsing the text exposition. *)

val merged_summary : string -> Sdb_util.Histogram.snapshot
(** One snapshot over the union of all sample sets of the named
    summary family (e.g. every [meth] series of
    ["sdb_rpc_latency_seconds"] combined): the series' buckets added,
    so its quantiles carry the same error bound as
    {!histogram_snapshot}'s.  The empty snapshot when the
    family does not exist or has only counter/gauge series. *)

(** {1 Exposition} *)

val register_collector : name:string -> (unit -> unit) -> unit
(** Register a pull-style collector run at the start of every
    {!render}, for subsystems that keep their own counters rather than
    pushing on each event (the concurrency sanitizer, for one).  The
    collector typically calls {!counter}/{!gauge} and records deltas.
    Registration is idempotent per [name]: the latest closure wins, so
    re-creating an engine does not stack duplicate collectors. *)

val render : unit -> string
(** The whole registry in Prometheus text format, deterministically
    ordered (families alphabetical, series by label value).  Histograms
    render as summaries: [quantile="0.5"|"0.9"|"0.99"|"0.999"] series
    plus [_sum], [_count], [_min] and [_max].  The quantile values are
    the bucket estimates of {!histogram_snapshot} (within 6.25%); the
    other four are exact. *)

val reset : unit -> unit
(** Zero every registered metric in place: counters and gauges to 0,
    histograms emptied.  Handles stay valid (instrumentation sites keep
    theirs for the process lifetime).  Intended for tests and for
    benchmark phase isolation. *)
