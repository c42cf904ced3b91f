(** Latency histogram with percentile queries.

    Samples are recorded exactly (growable array) because benchmark runs
    are bounded; percentile queries sort on demand and cache the sorted
    view until the next record. *)

type t

val create : unit -> t
val record : t -> float -> unit
val count : t -> int
val mean : t -> float
val max : t -> float
val percentile : t -> float -> float
(** [percentile t 99.0] is the p99 by linear interpolation between the
    closest order statistics.  Exact at sample boundaries: percentile 0
    is the minimum, 100 the maximum, and with N samples every multiple
    of 100/(N−1) returns a recorded sample verbatim.  Raises
    [Invalid_argument] if empty or [p] outside [\[0,100\]]. *)

val percentile_opt : t -> float -> float option
(** Like {!percentile} but [None] on an empty histogram (still raises on
    [p] outside [\[0,100\]]). *)

type snapshot = {
  s_count : int;
  s_total : float;
  s_mean : float;
  s_min : float;
  s_max : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;
}
(** One consistent read of the usual summary statistics.  All fields of
    an empty histogram's snapshot are zero ([s_count = 0]), so metric
    exposition needs no emptiness guard at each call site. *)

val snapshot : t -> snapshot
[@@sdb.check.allow
  "dead-export: a reference: test_obs compares the registry's bucket \
   estimates against this exact snapshot"]

val empty_snapshot : snapshot
(** What {!snapshot} returns for an empty histogram (all zeros). *)

val merge_into : t -> t -> unit
(** [merge_into dst src] appends every sample of [src] to [dst]
    ([src] is unchanged).  Used to combine per-thread histograms after
    a multi-threaded run; [merge_into t t] doubles the sample set. *)
