(** Fault-injecting decorator over any {!Rpc.Transport.t} — the network
    twin of {!Sdb_storage.Fault_fs}.

    PR 3 gave the disk a composable fault injector; this gives the
    network one.  A {e controller} holds the fault schedule; any number
    of transports (in-process pairs and Unix-socket connections alike)
    are wrapped against it, each tagged with an optional {e peer id} so
    partitions can target one replica while others stay reachable.
    Everything is seeded and deterministic: the netchaos suite sweeps
    seeds over it the way the disk chaos job sweeps {!Fault_fs}.

    Injectable faults, composable per message:

    - {b drop}: the message silently vanishes (the caller discovers it
      only through its recv deadline);
    - {b delay} (fixed + jittered);
    - {b duplicate delivery}: the message is sent twice — exercising
      the response-desync → poison → reconnect path in {!Rpc.Client};
    - {b reorder}: the message is held back and sent after the next
      one on the same transport;
    - {b connection reset}: the operation raises and the wrapped
      transport is dead from then on (scheduled via {!fail_nth} or a
      seeded {!set_fault_rate}, like [Fault_fs.fail_nth]);
    - {b blackhole / partition}: all traffic to and from a peer id is
      silently discarded until {!heal} — sends vanish and receipts are
      suppressed, exactly a two-way IP blackhole, while the transport
      stays "connected".

    Faults are decided {e before} the wrapped operation runs; a reset
    never leaves a half-sent frame behind (the underlying transport is
    closed).  Everything not faulted passes straight through. *)

type t
(** Fault controller, shared by every transport wrapped against it. *)

type op = [ `Send | `Recv ]

val reset_message : string
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]
(** The exact {!Rpc.Rpc_error} message of an injected connection
    reset, so tests and harnesses can tell injected faults from real
    ones. *)

val create : ?seed:int -> unit -> t
(** [seed] (default 0) drives every random choice (rates, jitter). *)

val wrap : t -> ?peer:string -> Rpc.Transport.t -> Rpc.Transport.t
(** Decorate a transport.  [peer] tags it for {!partition} targeting;
    an untagged transport is never partitioned but sees every other
    fault.  Wrapping is cheap; wrap each fresh transport (including
    reconnect-factory ones) so faults survive reconnection. *)

(** {1 Scheduled and random faults} *)

val fail_nth : t -> op:op -> n:int -> ?count:int -> unit -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]
(** Counting from now across every wrapped transport, the [n]-th
    operation of kind [op] (1-based) and the [count - 1] (default 0)
    following ones raise a connection reset. *)

val set_fault_rate : t -> op:op -> float -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]
(** Each operation of kind [op] independently resets with this
    probability.  [0.] (the default) disables. *)

val set_drop_rate : t -> float -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]
(** Each sent message is silently discarded with this probability. *)

val set_dup_rate : t -> float -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]
(** Each sent message is delivered twice with this probability. *)

val set_reorder_rate : t -> float -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]
(** Each sent message is held back, with this probability, until the
    next send on the same transport (which overtakes it).  A held
    message is discarded if the transport closes first. *)

val set_delay : t -> ?jitter_s:float -> float -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]
(** Sleep this long (plus uniform jitter in [\[0, jitter_s)]) before
    every send.  [0.] disables. *)

(** {1 Partitions} *)

val partition : t -> string -> unit
(** Blackhole the peer: traffic on transports tagged with this peer id
    is discarded in both directions until {!heal}.  Idempotent. *)

val heal : t -> string -> unit
val partitioned : t -> string -> bool
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]

(** {1 Introspection} *)

val ops : t -> op:op -> int
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]
(** Operations of this kind intercepted so far. *)

val injected : t -> int
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]
(** Total faults injected (drops, dups, reorders, resets, blackholed
    messages) — sleeps are not counted. *)

val clear : t -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the network-fault suites drive the \
   transport decorator through it"]
(** Drop every scheduled fault, rate, delay, cap, and partition. *)
