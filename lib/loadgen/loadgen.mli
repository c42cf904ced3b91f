(** Open-loop workload generation with coordinated-omission-free
    latency accounting.

    The arrival schedule is fixed before the system's behaviour is
    seen: each client thread computes intended arrival instants from
    the configured rate, sleeps until each instant, and issues the
    operation — immediately, even when the system has fallen behind.
    Latency is measured from the {e intended} arrival to completion,
    so time spent queued behind a server stall counts against the
    server.  (A closed-loop driver that waits for each response before
    sending the next silently stretches the schedule around stalls —
    coordinated omission — and understates the tail, sometimes by
    orders of magnitude.)

    The generator drives any [exec] closure (an RPC stub, an
    in-process engine, a test fake); key popularity is zipfian via
    {!Sdb_util.Rng.zipf}, the read/write mix and value sizes are
    configurable, and everything is deterministic per seed except the
    wall-clock sleeps themselves. *)

type op =
  | Read of int          (** key index in [\[0, keys)] *)
  | Write of int * string  (** key index, payload *)

type schedule =
  | Poisson        (** exponential interarrival gaps: what independent
                       real clients produce, bursts included *)
  | Fixed_spacing  (** a deterministic 1/rate metronome *)

type value_size =
  | Fixed of int
  | Between of int * int  (** uniform in [\[a, b\]] *)

type config = {
  rate : float;          (** offered ops/s, summed over all threads *)
  duration_s : float;    (** length of the intended schedule *)
  threads : int;         (** client threads, each with its own schedule
                             at [rate/threads] *)
  keys : int;            (** key-space size *)
  theta : float;         (** zipf skew in [\[0,1)]; 0 = uniform *)
  read_fraction : float; (** probability an op is a [Read] *)
  value_size : value_size;
  schedule : schedule;
  seed : int;
}

val default : config
(** 1000 ops/s for 1 s over 4 threads, 1000 keys at theta 0.9, 50/50
    mix, 64-byte values, Poisson arrivals, seed 1. *)

val read_mostly : config
(** {!default} with a 99/1 read/write mix — the enquiry-dominated
    traffic the paper reports for its name server, and the preset that
    drives a read path (lock-free or Shared-lock) rather than the commit
    pipeline. *)

type result = {
  offered : int;         (** intended arrivals (all were issued) *)
  completed : int;
  errors : int;          (** [exec] raised; also recorded in latency *)
  elapsed_s : float;     (** start to last completion, at least
                             [duration_s] *)
  achieved_rate : float; (** [completed / elapsed_s] *)
  latency : Sdb_util.Histogram.t;  (** seconds from intended arrival *)
  max_lag_s : float;     (** worst observed backlog behind schedule *)
}

val run :
  ?observe:(latency_s:float -> ok:bool -> unit) ->
  config ->
  exec:(thread:int -> op -> unit) ->
  result
(** Execute one open-loop run: spawn [threads] client threads against
    [exec] (which signals failure by raising) and block until the
    schedule is drained.  [observe] is called after every operation
    from the issuing thread — the hook for feeding an {!Sdb_obs.Slo}
    tracker or metrics during the run.  Raises [Invalid_argument] on a
    non-positive rate/duration/threads/keys or an out-of-range
    mix/size. *)

val sweep :
  ?observe:(latency_s:float -> ok:bool -> unit) ->
  ?on_result:(float -> result -> unit) ->
  config ->
  rates:float list ->
  exec:(thread:int -> op -> unit) ->
  (float * result) list
(** {!run} once per rate (an arrival-rate ramp), in order, reporting
    each finished step through [on_result]. *)

val knee : ?tolerance:float -> (float * result) list -> float option
(** The sustained-throughput knee of a sweep: the highest offered rate
    whose achieved rate stayed within [tolerance] (default 0.95) of
    it, or [None] if the system kept up with nothing. *)

(** {1 Schedule and mix internals, exposed for tests} *)

val interarrival : schedule -> Sdb_util.Rng.t -> rate:float -> float
[@@sdb.check.allow
  "dead-export: test hook: the loadgen suite checks the arrival \
   schedule apart from the run loop that uses it"]
val arrivals :
  schedule -> Sdb_util.Rng.t -> rate:float -> duration_s:float -> float array
[@@sdb.check.allow
  "dead-export: test hook: the loadgen suite checks the arrival \
   schedule apart from the run loop that uses it"]
(** Ascending intended offsets in [\[0, duration_s)]. *)

val gen_op : config -> Sdb_util.Rng.t -> op
[@@sdb.check.allow
  "dead-export: test hook: the loadgen suite checks the op mix apart \
   from the run loop that uses it"]
