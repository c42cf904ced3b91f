(** Remote procedure calls with pickle-marshalled arguments.

    The paper's name server is reached through "a general purpose
    remote procedure call mechanism" whose stubs marshal strongly typed
    values (§6).  Here both directions use the same {!Sdb_pickle.Pickle}
    codecs: a procedure is declared once with its argument and result
    codecs, giving a typed client function and a typed server handler
    that share a wire fingerprint.

    Two transports are provided: an in-process pair with an optional
    simulated round-trip delay (how E6 reproduces the paper's 8 ms
    network term without a network), and Unix-domain stream sockets
    with a threaded accept loop (used by the [smalldb_ns] CLI). *)

exception Rpc_error of string
(** Transport failure, undecodable traffic, unknown procedure, or a
    server-side exception (carried as text). *)

module Transport : sig
  type t = {
    descr : string;
    send : string -> unit;  (** one complete message *)
    recv : unit -> string;  (** blocks; raises {!Rpc_error} when closed *)
    close : unit -> unit;
    set_recv_timeout : float option -> unit;
        (** bound every subsequent [recv] to this many seconds ([None]
            = block forever); an expired deadline raises {!Rpc_error}
            with {!deadline_exceeded} as the message *)
  }

  val round_trips : unit -> int
  (** Global count of completed calls (any client), for cost modelling. *)

  val deadline_exceeded : string
  [@@sdb.check.allow
    "dead-export: a reference the deadline tests compare the error \
     message against"]
  (** The exact {!Rpc_error} message raised by a timed-out [recv]. *)
end

module Inproc : sig
  val pair : ?delay_s:float -> unit -> Transport.t * Transport.t
  (** A connected client/server transport pair backed by in-memory
      queues.  [delay_s] sleeps that long on every message, simulating
      one-way network latency. *)
end

module Socket : sig
  type listener

  val listen : path:string -> (Transport.t -> unit) -> listener
  (** Bind a Unix-domain socket and serve each accepted connection in
      its own thread with the given loop (typically
      [Server.serve ~handlers]). *)

  val connect : path:string -> Transport.t
  val shutdown : listener -> unit
end

module Server : sig
  type handler

  val handler : meth:string -> 'a Sdb_pickle.Pickle.t -> 'b Sdb_pickle.Pickle.t ->
    ('a -> 'b) -> handler
  (** A procedure: decode the argument, run, encode the result.  An
      exception in the body is returned to the caller as an error. *)

  val serve : handlers:handler list -> Transport.t -> unit
  (** Request loop until the peer closes.  Requests are handled in
      arrival order. *)
end

type retry_policy = {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  initial_backoff_s : float;
  backoff_multiplier : float;
  max_backoff_s : float;
  jitter : bool;
      (** full jitter (see {!Backoff}): each delay is drawn uniformly
          from [\[0, base)] so synchronized failures decorrelate *)
}
(** Exponential backoff between re-attempts of idempotent calls,
    interpreted by {!Backoff}. *)

val default_retry : retry_policy
(** 3 attempts, 20 ms initial backoff, doubling, capped at 1 s, with
    full jitter. *)

module Client : sig
  type t

  val create :
    ?deadline_s:float ->
    ?retry:retry_policy ->
    ?retry_budget:Backoff.Budget.t ->
    ?reconnect:(unit -> Transport.t) ->
    Transport.t -> t
  (** [deadline_s] bounds every call's wait for a response; an expired
      deadline raises {!Rpc_error} and {e poisons} the client (see
      {!broken}).  [retry] governs re-attempts of calls made with
      [~idempotent:true].  [retry_budget] (default unlimited) is a
      token bucket, typically shared across many clients, that each
      retry must spend from — an empty bucket fails the call at once
      instead of amplifying load during an outage.  [reconnect]
      supplies a fresh transport when the previous one is poisoned —
      without it a broken client fails every subsequent call. *)

  val call :
    ?idempotent:bool ->
    t -> meth:string -> 'a Sdb_pickle.Pickle.t -> 'b Sdb_pickle.Pickle.t -> 'a -> 'b
  (** One round trip.  Raises {!Rpc_error} on any failure.

      Any transport-level failure (send error, recv error or deadline,
      undecodable or mismatched response) poisons the client: the
      connection may still carry a stale in-flight response, so it is
      closed and never reused.  A call declared [~idempotent:true]
      (default false) is re-attempted over a fresh transport, with
      exponential backoff, up to [retry.max_attempts] times — but only
      when [reconnect] was provided and only after transport-level
      failures; server-side errors are returned at once and
      non-idempotent calls are never re-sent. *)

  val broken : t -> bool
  [@@sdb.check.allow
    "dead-export: a reference the RPC failure tests check poisoning \
     with"]
  (** True after a transport failure or response-id desync; every later
      call either reconnects (when [reconnect] was given) or raises. *)

  val close : t -> unit
end
