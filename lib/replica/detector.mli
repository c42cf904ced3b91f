(** Heartbeat failure detector: the alive → suspect → dead state
    machine, pure and synchronization-free.

    One instance tracks one peer.  The caller (the replica's health
    monitor) holds the peer mutex around every call and supplies
    monotonic time explicitly — which is also what lets
    [lib/schedcheck] drive this exact code under a virtual clock and
    exhaust its interleavings.

    Rules (the ones the schedcheck scenario verifies):

    - the {e only} transition into [Alive] is {!probe_succeeded} — a
      peer never revives by timeout, config reload, or any other path;
    - a probe failure demotes [Alive] to [Suspect] immediately, and to
      [Dead] once no success has been seen for [dead_after_s];
    - {!tick} (pure aging) only ever demotes: [Alive] → [Suspect] after
      [suspect_after_s] without a success, → [Dead] after
      [dead_after_s] — so suspicion is never lost while a probe is
      still in flight. *)

type state = Alive | Suspect | Dead

val state_to_string : state -> string

type config = {
  heartbeat_interval_s : float;  (** monitor's probe period *)
  suspect_after_s : float;
      (** no successful heartbeat for this long → [Suspect] *)
  dead_after_s : float;  (** … for this long → [Dead] *)
}

val default_config : config
(** 1 s heartbeats, suspect after 3 s, dead after 10 s. *)

val validate_config : config -> unit
(** [Invalid_argument] unless
    [0 < heartbeat_interval_s <= suspect_after_s <= dead_after_s]. *)

type transition = {
  tr_from : state;
  tr_to : state;
  tr_cause : [ `Success | `Failure | `Timeout ];
}

type t

val create : now:float -> config -> t
(** Starts [Alive] with a success assumed at [now]. *)

val state : t -> state

val probe_started : t -> unit
(** Mark a heartbeat RPC in flight (introspection; transitions never
    depend on it). *)

val probe_succeeded : t -> now:float -> transition option
(** A heartbeat completed: record the success time and transition to
    [Alive].  Returns the transition when the state changed. *)

val probe_failed : t -> now:float -> transition option
(** A heartbeat errored or timed out. *)

val tick : t -> now:float -> transition option
(** Pure aging between probes; never promotes toward [Alive]. *)
