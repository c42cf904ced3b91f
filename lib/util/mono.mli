(** Monotonic time for deadlines.

    [Unix.gettimeofday] is wall time: an NTP step moves it, and with it
    every deadline computed as [now +. timeout] — a backward step makes
    a timeout never expire, a forward step expires it immediately.  All
    deadline and interval arithmetic in the tree (RPC recv deadlines,
    replica flush, heartbeat thresholds, retry backoff) goes through
    this module instead.

    The epoch is arbitrary (typically boot time): readings are only
    meaningful as differences.  Never mix them with wall-clock
    timestamps. *)

val now_s : unit -> float
(** Monotonic seconds.  Guaranteed non-decreasing within the process
    even if the underlying clock source misbehaves. *)
