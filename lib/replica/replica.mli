(** Name-server replication (§4).

    The paper's name server "already replicate[s] the database on
    multiple name servers spread across the network" and responds "to
    a hard error on a particular name server replica by restoring its
    data from another replica.  This causes us to lose only those
    updates that had been applied to the damaged replica but not
    propagated to any other replica."

    The model here matches that description: each replica accepts
    client updates locally (durably, through its own log) and eagerly
    pushes them to its peers over RPC; a peer that is unreachable or
    behind is caught up later by {!anti_entropy}, which replays the
    local log suffix the peer is missing — or, when a checkpoint has
    already absorbed that history, ships a full snapshot.  Updates are
    propagated in commit order per origin; concurrent updates at
    different origins converge because the name-server update
    operations are idempotent last-writer assignments on disjoint or
    re-grafted subtrees.  (The richer reconciliation of Lampson's
    global name service is out of this paper's scope.)

    {b Propagation never blocks the commit path.}  Committing an
    update only appends it to a bounded per-peer outbox; a dedicated
    sender thread per peer drains the outbox over RPC.  A peer whose
    transport hangs, errors, or whose outbox overflows is marked
    {e lagging}: eager delivery is suspended and the next
    {!anti_entropy} resynchronizes it.  Local update latency is
    therefore independent of peer health and of the RPC deadline.

    {b Self-healing.}  {!start_health} runs a monitor thread that
    probes every peer with the protocol's cheap [ping] verb on a fixed
    heartbeat interval, drives a per-peer {!Detector} (alive → suspect
    → dead, monotonic-clock deadlines), and automatically catches up
    peers that are lagging or behind — paced by jittered exponential
    backoff while they keep failing — so a partition that heals
    converges without anyone calling {!anti_entropy} by hand. *)

type t

type peer_report = {
  peer_id : string;
  reachable : bool;
  lagging : bool;
      (** eager delivery suspended (failure, overflow, or a missed
          commit); {!anti_entropy} will resynchronize *)
  backlog : int;  (** local updates not yet acknowledged by this peer *)
  queued : int;  (** updates currently waiting in the peer's outbox *)
  health : Detector.state;
      (** the failure detector's verdict; [Alive] until {!start_health}
          has probed the peer *)
}

val create : id:string -> Sdb_nameserver.Nameserver.t -> t
(** Wrap a local name server as a replica.  Propagation subscribes to
    the engine's committed-update stream, so updates made through any
    path — the [Nameserver] API or an RPC handler — are
    pushed to peers. *)

val add_peer :
  ?acked_lsn:int -> ?outbox_capacity:int ->
  t -> id:string -> Sdb_rpc.Ns_protocol.Client.t -> unit
(** Register a peer and start its sender thread.  [acked_lsn] is the
    local LSN the peer is already known to have (default: the current
    tip, i.e. the peer is up to date); pass [~acked_lsn:0] for an
    empty peer that must be seeded by the next {!anti_entropy}.
    [outbox_capacity] (default 256) bounds the eager-push queue; when
    it fills, the peer is marked lagging and deferred to anti-entropy
    instead of stalling or growing without bound.  Give the client a
    recv deadline ({!Sdb_rpc.Rpc.Client.create}) so a hung peer
    releases its sender thread. *)

val reconnect : t -> id:string -> Sdb_rpc.Ns_protocol.Client.t -> unit
(** Replace a known peer's (failed) connection, keeping its
    acknowledged position, and mark it reachable again.  The stale
    outbox is discarded; run {!anti_entropy} to catch the peer up. *)

val set_value : t -> Sdb_nameserver.Name_path.t -> string option -> unit

(** {1 Health monitoring and self-healing} *)

type health_config = {
  detector : Detector.config;  (** heartbeat period and thresholds *)
  auto_catch_up : bool;
      (** when true (default), the monitor runs {!anti_entropy}'s
          per-peer catch-up automatically for lagging/behind peers *)
  catch_up_backoff : Sdb_rpc.Backoff.policy;
      (** pacing of repeated catch-up attempts against a peer that
          keeps failing; reset on the first success *)
  catch_up_budget : Sdb_rpc.Backoff.Budget.t;
      (** global rate limiter on monitor-initiated catch-ups (default
          unlimited) *)
}

val default_health_config : health_config

val start_health : ?config:health_config -> t -> unit
(** Start the monitor thread: probe every peer each heartbeat
    interval, update its detector, export
    [sdb_replica_peer_state]/[sdb_replica_heartbeat_rtt_seconds], and
    (unless disabled) catch up unhealthy peers automatically.  Every
    peer's detector is re-armed [Alive] under the new thresholds.
    Raises [Invalid_argument] if already running or the config is
    invalid.  Give peer clients a recv deadline: a probe shares the
    peer's client with the eager sender, and the deadline bounds how
    long a hung push can delay the probe. *)

val anti_entropy : t -> unit
(** Catch every peer up: replay the log suffix it is missing, or ship
    a full snapshot when the log no longer covers it.  Clears the
    lagging state and marks peers reachable again on success.  Runs on
    the calling thread; eager delivery to a peer is paused (and any
    in-flight push completes first) while that peer is caught up. *)

val flush : ?timeout_s:float -> t -> bool
(** Wait until every peer's outbox has drained (default timeout 5 s).
    Returns [false] if some peer is lagging/unreachable (its outbox
    will not drain until {!anti_entropy}) or the timeout expired. *)

val peers : t -> peer_report list

val shutdown : t -> unit
(** Unsubscribe from the commit stream, stop and join every sender
    thread (closing peer clients to release any blocked receive).
    The replica must not be used afterwards. *)

val converged_with : t -> Sdb_rpc.Ns_protocol.Client.t -> bool
[@@sdb.check.allow
  "dead-export: library surface: the anti-entropy convergence check; \
   test_replica calls it"]
(** Digest comparison with a peer — the long-term consistency check. *)

val repair_from_peer :
  ?config:Smalldb.config -> ?chunk_bytes:int ->
  Sdb_rpc.Ns_protocol.Client.t -> Sdb_storage.Fs.t ->
  (Sdb_nameserver.Nameserver.t, string) result
(** §4's restore-from-replica, on an empty store or on a {e damaged}
    one — usable when [open_] refuses the store outright (e.g.
    interior log damage with committed entries beyond it).  Pulls the
    peer's checkpoint image ({!Smalldb.Make.image}) in resumable
    chunks of [chunk_bytes] (default 64 KiB), so a mid-transfer
    connection reset resumes instead of restarting, and verifies it
    against the digest the peer pinned.  Then it wipes the store's
    files and installs the image as the store's first generation
    ({!Sdb_nameserver.Nameserver.install}): [checkpoint0], an empty
    [logfile0], [version].  The opened store reports the peer's LSN,
    and its own image must digest to the pinned one.  The state is
    pickled once, by the peer, and written once.  The lost tail, if
    any, is "only those updates that had been applied to the damaged
    replica but not propagated to any other replica" (§4). *)
