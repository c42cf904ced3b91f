module Fs = Sdb_storage.Fs
module Ns = Sdb_nameserver.Nameserver
module Proto = Sdb_rpc.Ns_protocol
module Rpc = Sdb_rpc.Rpc
module Backoff = Sdb_rpc.Backoff
module Metrics = Sdb_obs.Metrics
module Mono = Sdb_util.Mono

let m_pushes =
  Metrics.counter "sdb_replica_pushes_total"
    ~help:"Updates pushed to peers (eager or anti-entropy)."

let m_push_failures =
  Metrics.counter "sdb_replica_push_failures_total"
    ~help:"Pushes that failed and marked the peer unreachable."

let m_full_transfers =
  Metrics.counter "sdb_replica_full_transfers_total"
    ~help:"Anti-entropy rounds that fell back to a full state transfer."

let m_overflows =
  Metrics.counter "sdb_replica_outbox_overflows_total"
    ~help:"Commits dropped from a full outbox (peer deferred to anti-entropy)."

let m_repairs =
  Metrics.counter "sdb_replica_repairs_total"
    ~help:"Stores rebuilt from a peer's full state (repair_from_peer)."

let m_heartbeats =
  Metrics.counter "sdb_replica_heartbeats_total"
    ~help:"Heartbeat probes answered by peers."

let m_heartbeat_failures =
  Metrics.counter "sdb_replica_heartbeat_failures_total"
    ~help:"Heartbeat probes that errored or timed out."

let m_transitions =
  Metrics.counter "sdb_replica_peer_transitions_total"
    ~help:"Failure-detector state transitions, across all peers."

let m_auto_catchups =
  Metrics.counter "sdb_replica_auto_catchups_total"
    ~help:"Anti-entropy rounds started by the health monitor."

(* The commit path must never do I/O: [on_commit] only appends to this
   bounded per-peer outbox; a dedicated sender thread drains it.  A
   peer that errors, times out, or overflows the outbox is marked
   lagging and parked until {!anti_entropy} resynchronizes it. *)
type peer = {
  p_id : string;
  mutable p_client : Proto.Client.t;
  mutable p_acked : int;  (* local LSNs below this are known applied *)
  mutable p_reachable : bool;
  mutable p_lagging : bool;  (* eager pipeline suspended *)
  p_backlog : Metrics.gauge;  (* LSN delta to the local tip *)
  p_depth : Metrics.gauge;  (* current outbox occupancy *)
  p_queue : (int * Ns.update) Queue.t Sdb_check.Guarded.t;
  p_capacity : int;
  p_mutex : Sdb_check.Mu.t;  (* guards every mutable peer field *)
  p_cond : Condition.t;
  mutable p_sending : bool;  (* sender has an RPC in flight *)
  mutable p_stop : bool;
  mutable p_thread : Thread.t option;
  mutable p_detector : Detector.t;  (* guarded by p_mutex *)
  p_state_g : Metrics.gauge;  (* detector state as 0/1/2 *)
  p_rtt : Metrics.histogram;  (* heartbeat round-trip time *)
  (* Catch-up pacing; touched only by the health-monitor thread. *)
  mutable p_catchup : Backoff.t option;
  mutable p_next_catchup_s : float;  (* monotonic *)
}

type peer_report = {
  peer_id : string;
  reachable : bool;
  lagging : bool;
  backlog : int;
  queued : int;
  health : Detector.state;
}

(* The health monitor: one thread probing every peer with the cheap
   [ping] verb each heartbeat interval, feeding a per-peer {!Detector},
   and — when enabled — running {!catch_up} for peers that are lagging
   or behind, paced by jittered exponential backoff so a dead peer is
   not hammered. *)
type health_config = {
  detector : Detector.config;
  auto_catch_up : bool;
  catch_up_backoff : Backoff.policy;
      (** pacing of repeated catch-up attempts against an unhealthy
          peer; reset on the first success *)
  catch_up_budget : Backoff.Budget.t;
      (** global limiter on monitor-initiated catch-ups *)
}

let default_health_config =
  {
    detector = Detector.default_config;
    auto_catch_up = true;
    catch_up_backoff = Backoff.default;
    catch_up_budget = Backoff.Budget.unlimited;
  }

type monitor = {
  mon_config : health_config;
  mon_mutex : Sdb_check.Mu.t;
  mutable mon_stop : bool;
  mutable mon_thread : Thread.t option;
}

type t = {
  replica_id : string;
  ns : Ns.t;
  peers_mutex : Sdb_check.Mu.t;
  mutable peer_list : peer list;
  mutable subscription : Ns.Db.subscription option;
  mutable health_monitor : monitor option;  (* guarded by peers_mutex *)
}

let default_outbox_capacity = 256

(* Forward one update through the peer's typed surface. *)
let push_update client (u : Ns.update) =
  match u with
  | Ns.Set_value (p, v) -> Proto.Client.set_value client p v
  | Ns.Write_subtree (p, tree) -> Proto.Client.write_subtree client p tree
  | Ns.Delete_subtree p -> Proto.Client.delete_subtree client p
  | Ns.Create p -> Proto.Client.create_name client p

let local_lsn t = (Ns.stats t.ns).Smalldb.lsn

(* Call with [p_mutex] held (the Guarded queue access checks it). *)
let refresh_gauges_locked peer ~tip =
  Metrics.set_gauge peer.p_backlog (float_of_int (max 0 (tip - peer.p_acked)));
  Metrics.set_gauge peer.p_depth
    (float_of_int (Queue.length (Sdb_check.Guarded.get peer.p_queue)))

let all_peers t =
  Sdb_check.Mu.with_lock t.peers_mutex (fun () -> t.peer_list)

(* ------------------------------------------------------------------ *)
(* The sender thread                                                   *)

let sender_loop t peer =
  let rec loop () =
    Sdb_check.Mu.lock peer.p_mutex;
    let queue () = Sdb_check.Guarded.get peer.p_queue in
    while Queue.is_empty (queue ()) && not peer.p_stop do
      Sdb_check.Mu.wait peer.p_cond peer.p_mutex
    done;
    if peer.p_stop then Sdb_check.Mu.unlock peer.p_mutex
    else begin
      (* Peek, don't pop: the in-flight entry must stay queued so the
         contiguity arithmetic in [on_commit]
         ([p_acked + Queue.length = next lsn]) keeps holding while the
         RPC is outstanding.  It is popped only once acknowledged. *)
      let lsn, u = Queue.peek (queue ()) in
      if lsn < peer.p_acked then begin
        (* Anti-entropy outran the outbox; the peer already has it. *)
        ignore (Queue.pop (queue ()) : int * Ns.update);
        Sdb_check.Mu.unlock peer.p_mutex;
        loop ()
      end
      else if lsn > peer.p_acked || peer.p_lagging || not peer.p_reachable
      then begin
        (* Gap or suspended pipeline: anti-entropy owns the catch-up. *)
        peer.p_lagging <- true;
        Queue.clear (queue ());
        refresh_gauges_locked peer ~tip:(local_lsn t);
        Condition.broadcast peer.p_cond;
        Sdb_check.Mu.unlock peer.p_mutex;
        loop ()
      end
      else begin
        peer.p_sending <- true;
        let client = peer.p_client in
        Sdb_check.Mu.unlock peer.p_mutex;
        (* The push is network I/O: the outbox mutex must be off. *)
        Sdb_check.assert_no_mutex_held_during_io ~site:"replica.sender.push";
        let ok =
          match push_update client u with
          | () -> true
          | exception Rpc.Rpc_error _ -> false
        in
        Sdb_check.Mu.lock peer.p_mutex;
        peer.p_sending <- false;
        if ok then begin
          if peer.p_acked = lsn then peer.p_acked <- lsn + 1;
          (* The front is still our entry unless an overflow cleared
             the queue mid-flight. *)
          (match Queue.peek_opt (queue ()) with
          | Some (l, _) when l = lsn ->
            ignore (Queue.pop (queue ()) : int * Ns.update)
          | _ -> ());
          Metrics.incr m_pushes
        end
        else begin
          peer.p_reachable <- false;
          peer.p_lagging <- true;
          Queue.clear (queue ());
          Metrics.incr m_push_failures
        end;
        refresh_gauges_locked peer ~tip:(local_lsn t);
        Condition.broadcast peer.p_cond;
        Sdb_check.Mu.unlock peer.p_mutex;
        loop ()
      end
    end
  in
  loop ()

(* Eager propagation rides the engine's committed-update stream, so
   every update reaches the peers no matter which code path committed
   it.  This runs on the updater's thread with no engine lock held and
   must stay O(1): enqueue or mark lagging, never touch the network. *)
let on_commit t lsn u =
  List.iter
    (fun peer ->
      Sdb_check.Mu.lock peer.p_mutex;
      let queue = Sdb_check.Guarded.get peer.p_queue in
      (if peer.p_reachable && not peer.p_lagging then begin
         let expected = peer.p_acked + Queue.length queue in
         if expected = lsn then begin
           if Queue.length queue >= peer.p_capacity then begin
             peer.p_lagging <- true;
             Queue.clear queue;
             Metrics.incr m_overflows
           end
           else begin
             Queue.push (lsn, u) queue;
             Condition.broadcast peer.p_cond
           end
         end
         else if expected < lsn then
           (* A racing commit notification slipped past; the eager
              pipeline is no longer contiguous. *)
           peer.p_lagging <- true
         (* expected > lsn: stale duplicate notification; ignore. *)
       end);
      refresh_gauges_locked peer ~tip:(lsn + 1);
      Sdb_check.Mu.unlock peer.p_mutex)
    (all_peers t)
  [@@sdb.noblock]

let create ~id ns =
  let t =
    {
      replica_id = id;
      ns;
      peers_mutex = Sdb_check.Mu.make "replica.peers";
      peer_list = [];
      subscription = None;
      health_monitor = None;
    }
  in
  t.subscription <- Some (Ns.Db.subscribe (Ns.db ns) (fun lsn u -> on_commit t lsn u));
  t

let add_peer ?acked_lsn ?(outbox_capacity = default_outbox_capacity) t ~id client =
  if outbox_capacity < 1 then invalid_arg "Replica.add_peer: outbox_capacity < 1";
  let acked = Option.value acked_lsn ~default:(local_lsn t) in
  let det_config =
    Sdb_check.Mu.with_lock t.peers_mutex (fun () ->
        match t.health_monitor with
        | Some m -> m.mon_config.detector
        | None -> Detector.default_config)
  in
  let p_mutex = Sdb_check.Mu.make "replica.peer" in
  let peer =
    {
      p_id = id;
      p_client = client;
      p_acked = acked;
      p_reachable = true;
      p_lagging = false;
      p_backlog =
        Metrics.gauge "sdb_replica_backlog"
          ~help:"Updates the peer has not yet acknowledged (LSN delta)."
          ~labels:[ ("replica", t.replica_id); ("peer", id) ];
      p_depth =
        Metrics.gauge "sdb_replica_outbox_depth"
          ~help:"Updates queued in the peer's outbox."
          ~labels:[ ("replica", t.replica_id); ("peer", id) ];
      p_queue =
        Sdb_check.Guarded.create ~by:p_mutex ~name:"replica.outbox"
          (Queue.create ());
      p_capacity = outbox_capacity;
      p_mutex;
      p_cond = Condition.create ();
      p_sending = false;
      p_stop = false;
      p_thread = None;
      p_detector = Detector.create ~now:(Mono.now_s ()) det_config;
      p_state_g =
        Metrics.gauge "sdb_replica_peer_state"
          ~help:"Failure-detector state of the peer (0 alive, 1 suspect, 2 dead)."
          ~labels:[ ("replica", t.replica_id); ("peer", id) ];
      p_rtt =
        Metrics.histogram "sdb_replica_heartbeat_rtt_seconds"
          ~help:"Heartbeat round-trip time to the peer."
          ~labels:[ ("replica", t.replica_id); ("peer", id) ];
      p_catchup = None;
      p_next_catchup_s = 0.0;
    }
  in
  Sdb_check.Mu.with_lock peer.p_mutex (fun () ->
      refresh_gauges_locked peer ~tip:(local_lsn t));
  peer.p_thread <- Some (Thread.create (fun () -> sender_loop t peer) ());
  Sdb_check.Mu.with_lock t.peers_mutex (fun () ->
      t.peer_list <- t.peer_list @ [ peer ])

let reconnect t ~id client =
  match List.find_opt (fun p -> String.equal p.p_id id) (all_peers t) with
  | None -> invalid_arg (Printf.sprintf "Replica.reconnect: unknown peer %S" id)
  | Some peer ->
    Sdb_check.Mu.with_lock peer.p_mutex (fun () ->
        peer.p_client <- client;
        peer.p_reachable <- true;
        (* Whatever the outbox held was meant for the dead connection;
           anti-entropy (or the next contiguous commit) resumes
           delivery. *)
        Queue.clear (Sdb_check.Guarded.get peer.p_queue);
        refresh_gauges_locked peer ~tip:(local_lsn t))

let update t u = Ns.Db.update (Ns.db t.ns) u
let set_value t path v = update t (Ns.Set_value (path, v))

(* ------------------------------------------------------------------ *)
(* Anti-entropy                                                        *)

let catch_up t peer =
  (* Park the eager sender and wait out any in-flight push, so the
     catch-up RPCs cannot interleave with an eager push: out-of-order
     delivery of two assignments to one path would revert it. *)
  Sdb_check.Mu.lock peer.p_mutex;
  peer.p_lagging <- true;
  while peer.p_sending do
    Sdb_check.Mu.wait peer.p_cond peer.p_mutex
  done;
  Queue.clear (Sdb_check.Guarded.get peer.p_queue);
  let client = peer.p_client in
  let acked0 = peer.p_acked in
  Sdb_check.Mu.unlock peer.p_mutex;
  (* The whole catch-up conversation is network I/O. *)
  Sdb_check.assert_no_mutex_held_during_io ~site:"replica.catch_up";
  let outcome =
    if acked0 >= local_lsn t then `Caught_up acked0
    else
      match Ns.updates_since t.ns acked0 with
      | None -> (
        (* The log no longer covers the peer's position: ship a full
           snapshot. *)
        let tree, lsn = Ns.snapshot_with_lsn t.ns in
        Metrics.incr m_full_transfers;
        match Proto.Client.write_subtree client [] tree with
        | () -> `Caught_up lsn
        | exception Rpc.Rpc_error _ -> `Failed acked0)
      | Some entries -> (
        let rec replay acked = function
          | [] -> `Caught_up acked
          | (lsn, u) :: rest -> (
            match push_update client u with
            | () ->
              Metrics.incr m_pushes;
              replay (lsn + 1) rest
            | exception Rpc.Rpc_error _ -> `Failed acked)
        in
        replay acked0 entries)
  in
  Sdb_check.Mu.lock peer.p_mutex;
  (match outcome with
  | `Caught_up acked ->
    peer.p_acked <- max peer.p_acked acked;
    peer.p_reachable <- true;
    peer.p_lagging <- false
  | `Failed acked ->
    peer.p_acked <- max peer.p_acked acked;
    peer.p_reachable <- false;
    Metrics.incr m_push_failures);
  refresh_gauges_locked peer ~tip:(local_lsn t);
  Condition.broadcast peer.p_cond;
  Sdb_check.Mu.unlock peer.p_mutex

let anti_entropy t = List.iter (catch_up t) (all_peers t)

(* ------------------------------------------------------------------ *)
(* The health monitor                                                  *)

let detector_state_value = function
  | Detector.Alive -> 0.0
  | Detector.Suspect -> 1.0
  | Detector.Dead -> 2.0

(* Call with [p_mutex] held. *)
let refresh_state_locked peer =
  Metrics.set_gauge peer.p_state_g
    (detector_state_value (Detector.state peer.p_detector))

let note_transition tr =
  match tr with None -> () | Some (_ : Detector.transition) -> Metrics.incr m_transitions

(* One heartbeat probe.  The ping shares the peer's client with the
   eager sender — the client's own mutex serializes them — so a probe
   can queue behind an in-flight push; the client's recv deadline
   bounds that wait.  Returns the detector state after the probe. *)
let heartbeat _t peer =
  let client =
    Sdb_check.Mu.with_lock peer.p_mutex (fun () ->
        Detector.probe_started peer.p_detector;
        peer.p_client)
  in
  Sdb_check.assert_no_mutex_held_during_io ~site:"replica.health.ping";
  let t0 = Mono.now_s () in
  let outcome =
    match Proto.Client.ping client with
    | (_ : int) -> Ok (Mono.now_s () -. t0)
    | exception Rpc.Rpc_error _ -> Error ()
  in
  let now = Mono.now_s () in
  Sdb_check.Mu.with_lock peer.p_mutex (fun () ->
      (match outcome with
      | Ok rtt ->
        Metrics.incr m_heartbeats;
        Metrics.observe peer.p_rtt rtt;
        note_transition (Detector.probe_succeeded peer.p_detector ~now)
      | Error () ->
        Metrics.incr m_heartbeat_failures;
        note_transition (Detector.probe_failed peer.p_detector ~now));
      refresh_state_locked peer;
      Detector.state peer.p_detector)

(* Self-healing: a peer that is lagging or behind gets an automatic
   catch-up, paced by jittered exponential backoff while it keeps
   failing and reset on the first success.  Dead peers are only probed
   (cheap); replay resumes once a ping revives them. *)
let maybe_catch_up t mon peer st =
  let cfg = mon.mon_config in
  if cfg.auto_catch_up && st <> Detector.Dead then begin
    let behind =
      Sdb_check.Mu.with_lock peer.p_mutex (fun () ->
          peer.p_lagging || (not peer.p_reachable) || peer.p_acked < local_lsn t)
    in
    let now = Mono.now_s () in
    if behind && now >= peer.p_next_catchup_s then begin
      if Backoff.Budget.try_spend cfg.catch_up_budget then begin
        Metrics.incr m_auto_catchups;
        catch_up t peer;
        let healthy =
          Sdb_check.Mu.with_lock peer.p_mutex (fun () ->
              peer.p_reachable && not peer.p_lagging)
        in
        if healthy then begin
          (match peer.p_catchup with Some b -> Backoff.reset b | None -> ());
          peer.p_next_catchup_s <- 0.0
        end
        else begin
          let b =
            match peer.p_catchup with
            | Some b -> b
            | None ->
              let b = Backoff.start cfg.catch_up_backoff in
              peer.p_catchup <- Some b;
              b
          in
          peer.p_next_catchup_s <- Mono.now_s () +. Backoff.next_s b
        end
      end
      else
        (* Budget denied: re-check next round without burning more. *)
        peer.p_next_catchup_s <- now +. cfg.detector.Detector.heartbeat_interval_s
    end
  end

let monitor_loop t mon =
  let interval = mon.mon_config.detector.Detector.heartbeat_interval_s in
  let stopped () =
    Sdb_check.Mu.with_lock mon.mon_mutex (fun () -> mon.mon_stop)
  in
  (* Sleep in slices so [stop_health] returns promptly. *)
  let rec sleep remaining =
    if remaining > 0.0 && not (stopped ()) then begin
      let dt = Float.min 0.05 remaining in
      Thread.delay dt;
      sleep (remaining -. dt)
    end
  in
  while not (stopped ()) do
    List.iter
      (fun peer ->
        if not (stopped ()) then begin
          let st = heartbeat t peer in
          maybe_catch_up t mon peer st
        end)
      (all_peers t);
    sleep interval
  done

let start_health ?(config = default_health_config) t =
  Detector.validate_config config.detector;
  Backoff.validate config.catch_up_backoff;
  Sdb_check.Mu.with_lock t.peers_mutex (fun () ->
      match t.health_monitor with
      | Some _ -> invalid_arg "Replica.start_health: monitor already running"
      | None ->
        let mon =
          {
            mon_config = config;
            mon_mutex = Sdb_check.Mu.make "replica.health";
            mon_stop = false;
            mon_thread = None;
          }
        in
        t.health_monitor <- Some mon;
        (* Re-arm every detector under the new thresholds. *)
        let now = Mono.now_s () in
        List.iter
          (fun peer ->
            Sdb_check.Mu.with_lock peer.p_mutex (fun () ->
                peer.p_detector <- Detector.create ~now config.detector;
                refresh_state_locked peer))
          t.peer_list;
        mon.mon_thread <- Some (Thread.create (fun () -> monitor_loop t mon) ()))

let stop_health t =
  let mon =
    Sdb_check.Mu.with_lock t.peers_mutex (fun () ->
        let m = t.health_monitor in
        t.health_monitor <- None;
        m)
  in
  match mon with
  | None -> ()
  | Some mon ->
    Sdb_check.Mu.with_lock mon.mon_mutex (fun () -> mon.mon_stop <- true);
    (match mon.mon_thread with
    | Some th ->
      Thread.join th;
      mon.mon_thread <- None
    | None -> ())

(* ------------------------------------------------------------------ *)
(* Introspection and lifecycle                                         *)

let peers t =
  let tip = local_lsn t in
  List.map
    (fun p ->
      Sdb_check.Mu.with_lock p.p_mutex (fun () ->
          {
            peer_id = p.p_id;
            reachable = p.p_reachable;
            lagging = p.p_lagging;
            backlog = max 0 (tip - p.p_acked);
            queued = Queue.length (Sdb_check.Guarded.get p.p_queue);
            health = Detector.state p.p_detector;
          }))
    (all_peers t)

let flush ?(timeout_s = 5.0) t =
  (* Monotonic: a wall-clock step (NTP, manual set) must not turn a
     5 s flush wait into an hour — or into zero. *)
  let deadline = Mono.now_s () +. timeout_s in
  let rec wait_peer peer =
    let state =
      Sdb_check.Mu.with_lock peer.p_mutex (fun () ->
          if peer.p_lagging || not peer.p_reachable then `Parked
          else if
            Queue.is_empty (Sdb_check.Guarded.get peer.p_queue)
            && not peer.p_sending
          then `Drained
          else `Busy)
    in
    match state with
    | `Drained -> true
    | `Parked -> false
    | `Busy ->
      if Mono.now_s () >= deadline then false
      else begin
        Thread.delay 0.001;
        wait_peer peer
      end
  in
  List.fold_left (fun acc peer -> wait_peer peer && acc) true (all_peers t)

let shutdown t =
  stop_health t;
  (match t.subscription with
  | Some s -> Ns.Db.unsubscribe (Ns.db t.ns) s
  | None -> ());
  t.subscription <- None;
  List.iter
    (fun peer ->
      Sdb_check.Mu.with_lock peer.p_mutex (fun () ->
          peer.p_stop <- true;
          Condition.broadcast peer.p_cond);
      (* Closing the client wakes a sender blocked in recv. *)
      (try Proto.Client.close peer.p_client with Rpc.Rpc_error _ -> ());
      match peer.p_thread with
      | Some th ->
        Thread.join th;
        peer.p_thread <- None
      | None -> ())
    (all_peers t)

(* ------------------------------------------------------------------ *)
(* Digests and hard-error recovery                                     *)

let converged_with t peer_client =
  match Proto.Client.digest peer_client with
  | peer_digest -> String.equal (Ns.digest t.ns) peer_digest
  | exception Rpc.Rpc_error _ -> false

(* Resumable state transfer: [fetch_meta] pins the peer's checkpoint
   image at one LSN; chunks of exactly that string are fetched
   idempotently, so a connection reset mid-transfer costs at most one
   chunk — the client reconnects and the next [fetch_chunk] resumes at
   the first byte still missing.  When the peer's state moves past the
   pinned LSN the server answers [None] and the transfer restarts from
   fresh meta; the reassembled bytes are digest-verified before use. *)
let fetch_state_resumable ?(chunk_bytes = 64 * 1024) ?(max_restarts = 8)
    client =
  if chunk_bytes < 1 then
    invalid_arg "Replica.fetch_state_resumable: chunk_bytes < 1";
  let rec start restarts =
    if restarts > max_restarts then
      Error "state transfer: peer state kept moving; too many restarts"
    else
      match Proto.Client.fetch_meta client with
      | exception Rpc.Rpc_error m -> Error ("fetch_meta: " ^ m)
      | lsn, peer_digest, total ->
        let buf = Buffer.create (max total 16) in
        let rec chunks () =
          let off = Buffer.length buf in
          if off >= total then `Done
          else
            match
              Proto.Client.fetch_chunk client ~lsn ~offset:off ~len:chunk_bytes
            with
            | Some s when String.length s > 0 ->
              Buffer.add_string buf s;
              chunks ()
            | Some _ | None -> `Moved
            | exception Rpc.Rpc_error m -> `Err m
        in
        (match chunks () with
        | `Err m -> Error ("fetch_chunk: " ^ m)
        | `Moved -> start (restarts + 1)
        | `Done ->
          let image = Buffer.contents buf in
          if String.equal (Digest.string image) peer_digest then
            Ok (lsn, image, peer_digest)
          else
            (* Wrong bytes despite a stable LSN: refuse and refetch. *)
            start (restarts + 1))
  in
  start 0

(* §4: "restoring its data from another replica", on the store itself —
   empty, or damaged so that [open_] refuses it (e.g. interior log
   damage with committed entries beyond).  The verified image replaces
   the store's files as its first generation, at the peer's LSN. *)
let repair_from_peer ?config ?chunk_bytes peer_client fs =
  let fail m = Error ("repair_from_peer: " ^ m) in
  match fetch_state_resumable ?chunk_bytes peer_client with
  | Error m -> fail m
  | Ok (lsn, image, peer_digest) -> (
    List.iter
      (fun f -> try fs.Fs.remove f with Fs.Io_error _ -> ())
      (fs.Fs.list_files ());
    match Ns.install ?config fs ~lsn image with
    | exception ((Fs.Io_error _ | Fs.No_space _) as e) -> fail (Fs.describe_exn e)
    | Error e -> fail e
    | Ok ns ->
      Metrics.incr m_repairs;
      if String.equal (Digest.string (snd (Ns.Db.image (Ns.db ns)))) peer_digest then
        Ok ns
      else begin
        Ns.close ns;
        fail "rebuilt state digest differs from peer"
      end)
