module Mem = Sdb_storage.Mem_fs
module Ns = Sdb_nameserver.Nameserver
module Data = Sdb_nameserver.Ns_data
module Path = Sdb_nameserver.Name_path
module Rpc = Sdb_rpc.Rpc
module Proto = Sdb_rpc.Ns_protocol
module Replica = Sdb_replica.Replica

let check = Alcotest.check

let p s = match Path.of_string s with Ok v -> v | Error e -> Alcotest.fail e

(* A test cell: one replica with a local ns, servable over inproc RPC. *)
type cell = {
  id : string;
  ns : Ns.t;
  store : Mem.store;
  replica : Replica.t;
  mutable server_threads : Thread.t list;
  mutable server_transports : Rpc.Transport.t list;
}

let make_cell id seed =
  let store = Mem.create_store ~seed () in
  let ns = Ns.open_exn (Mem.fs store) in
  { id; ns; store; replica = Replica.create ~id ns; server_threads = []; server_transports = [] }

(* Connect [a] -> [b]: a client in [a] served by [b]'s name server.
   [how] selects first registration (at a given acked position) or
   reconnection of a known peer. *)
let connect ?(how = `Add) a b =
  let client_t, server_t = Rpc.Inproc.pair () in
  let thread = Thread.create (fun () -> Proto.serve b.ns server_t) () in
  b.server_threads <- thread :: b.server_threads;
  b.server_transports <- server_t :: b.server_transports;
  let client = Proto.Client.create client_t in
  (match how with
  | `Add -> Replica.add_peer a.replica ~id:b.id client
  | `Add_from lsn ->
    Replica.add_peer ~acked_lsn:lsn a.replica ~id:b.id client
  | `Reconnect -> Replica.reconnect a.replica ~id:b.id client);
  client

(* Kill [cell]'s server side only — the partition move mid-test. *)
let shutdown cell =
  List.iter (fun t -> t.Rpc.Transport.close ()) cell.server_transports;
  List.iter Thread.join cell.server_threads;
  cell.server_threads <- [];
  cell.server_transports <- []

(* Full teardown: stop the replica's sender threads, then the servers. *)
let teardown cell =
  Replica.shutdown cell.replica;
  shutdown cell

let test_eager_propagation () =
  let a = make_cell "a" 1 and b = make_cell "b" 2 in
  ignore (connect a b);
  Replica.set_value a.replica (p "/users/adb") (Some "birrell");
  Replica.set_value a.replica (p "/users/mbj") (Some "jones");
  (* Propagation is asynchronous: wait for the outbox to drain. *)
  check Alcotest.bool "flushed" true (Replica.flush a.replica);
  check Alcotest.(option string) "replicated" (Some "birrell")
    (Ns.lookup b.ns (p "/users/adb"));
  check Alcotest.(option string) "replicated 2" (Some "jones")
    (Ns.lookup b.ns (p "/users/mbj"));
  (match Replica.peers a.replica with
  | [ r ] ->
    check Alcotest.bool "reachable" true r.Replica.reachable;
    check Alcotest.int "no backlog" 0 r.Replica.backlog;
    check Alcotest.int "outbox drained" 0 r.Replica.queued
  | _ -> Alcotest.fail "one peer expected");
  check Alcotest.string "digests equal" (Ns.digest a.ns) (Ns.digest b.ns);
  teardown a;
  teardown b

let test_unreachable_peer_and_anti_entropy () =
  let a = make_cell "a" 3 and b = make_cell "b" 4 in
  let _client = connect a b in
  Replica.set_value a.replica (p "/x") (Some "1");
  check Alcotest.bool "delivered before partition" true (Replica.flush a.replica);
  (* Partition: b's server goes away. *)
  shutdown b;
  Replica.set_value a.replica (p "/y") (Some "2");
  Replica.set_value a.replica (p "/z") (Some "3");
  (* The sender discovers the dead transport asynchronously; flush
     reports the peer parked rather than drained. *)
  check Alcotest.bool "flush reports undelivered" false (Replica.flush a.replica);
  (match Replica.peers a.replica with
  | [ r ] ->
    check Alcotest.bool "marked unreachable or lagging" true
      ((not r.Replica.reachable) || r.Replica.lagging);
    Alcotest.check Alcotest.bool "backlog accumulates" true (r.Replica.backlog >= 2)
  | _ -> Alcotest.fail "one peer");
  (* b's updates from before the partition are intact. *)
  check Alcotest.(option string) "pre-partition data" (Some "1") (Ns.lookup b.ns (p "/x"));
  check Alcotest.(option string) "missed" None (Ns.lookup b.ns (p "/y"));
  (* Heal: reconnect the same peer; its acked position is preserved,
     so anti-entropy replays exactly the missed log suffix. *)
  ignore (connect ~how:`Reconnect a b);
  Replica.anti_entropy a.replica;
  check Alcotest.(option string) "caught up y" (Some "2") (Ns.lookup b.ns (p "/y"));
  check Alcotest.(option string) "caught up z" (Some "3") (Ns.lookup b.ns (p "/z"));
  check Alcotest.string "converged" (Ns.digest a.ns) (Ns.digest b.ns);
  teardown a;
  teardown b

let test_anti_entropy_snapshot_fallback () =
  let a = make_cell "a" 5 and b = make_cell "b" 6 in
  (* Updates and a checkpoint BEFORE the peer joins, so the log no
     longer covers an empty peer's position (LSN 0): anti-entropy must
     take the full-transfer path. *)
  Replica.set_value a.replica (p "/old/one") (Some "1");
  Replica.set_value a.replica (p "/old/two") (Some "2");
  Replica.set_value a.replica (p "/new") (Some "3");
  Ns.checkpoint a.ns;
  ignore (connect ~how:(`Add_from 0) a b);
  Replica.anti_entropy a.replica;
  check Alcotest.(option string) "snapshot brought old" (Some "1")
    (Ns.lookup b.ns (p "/old/one"));
  check Alcotest.(option string) "snapshot brought new" (Some "3")
    (Ns.lookup b.ns (p "/new"));
  check Alcotest.string "converged" (Ns.digest a.ns) (Ns.digest b.ns);
  teardown a;
  teardown b

let test_propagation_via_any_path () =
  (* Updates made directly through the Nameserver API (not the Replica
     wrapper) must still reach peers: propagation subscribes to the
     engine's committed-update stream. *)
  let a = make_cell "a" 21 and b = make_cell "b" 22 in
  ignore (connect a b);
  Ns.set_value a.ns (p "/direct") (Some "through-ns-api");
  check Alcotest.bool "flushed" true (Replica.flush a.replica);
  check Alcotest.(option string) "propagated" (Some "through-ns-api")
    (Ns.lookup b.ns (p "/direct"));
  (* Batch updates propagate too, in order. *)
  Ns.Db.update_batch (Ns.db a.ns)
    [ Ns.Set_value (p "/b1", Some "1"); Ns.Set_value (p "/b2", Some "2") ];
  check Alcotest.bool "flushed batch" true (Replica.flush a.replica);
  check Alcotest.(option string) "batch 1" (Some "1") (Ns.lookup b.ns (p "/b1"));
  check Alcotest.(option string) "batch 2" (Some "2") (Ns.lookup b.ns (p "/b2"));
  check Alcotest.string "converged" (Ns.digest a.ns) (Ns.digest b.ns);
  teardown a;
  teardown b

let test_subscription_api () =
  (* Engine-level: subscribers see (lsn, update) in order; unsubscribe
     stops delivery. *)
  let store = Sdb_storage.Mem_fs.create_store ~seed:23 () in
  let ns = Ns.open_exn (Sdb_storage.Mem_fs.fs store) in
  let seen = ref [] in
  let sub = Ns.Db.subscribe (Ns.db ns) (fun lsn u -> seen := (lsn, u) :: !seen) in
  Ns.set_value ns (p "/x") (Some "1");
  Ns.set_value ns (p "/y") (Some "2");
  (match List.rev !seen with
  | [ (0, Ns.Set_value (px, _)); (1, Ns.Set_value (py, _)) ] ->
    check Alcotest.bool "paths" true (px = p "/x" && py = p "/y")
  | _ -> Alcotest.fail "wrong subscription stream");
  Ns.Db.unsubscribe (Ns.db ns) sub;
  Ns.set_value ns (p "/z") (Some "3");
  check Alcotest.int "no delivery after unsubscribe" 2 (List.length !seen);
  Ns.close ns

let test_converged_with () =
  let a = make_cell "a" 7 and b = make_cell "b" 8 in
  let client_ab = connect a b in
  Replica.set_value a.replica (p "/k") (Some "v");
  check Alcotest.bool "flushed" true (Replica.flush a.replica);
  Alcotest.check Alcotest.bool "converged" true
    (Replica.converged_with a.replica client_ab);
  (* Diverge b locally. *)
  Ns.set_value b.ns (p "/only-b") (Some "x");
  Alcotest.check Alcotest.bool "diverged" false
    (Replica.converged_with a.replica client_ab);
  teardown a;
  teardown b

let test_clone_from_peer () =
  (* §4 hard-error recovery: a dead replica's empty store is rebuilt
     from a live one.  The peer has two generations and a non-empty
     log; the clone holds the peer's image as its first generation, at
     the peer's LSN, so the peer's next eager push lands at the next
     LSN. *)
  let a = make_cell "a" 9 in
  Replica.set_value a.replica (p "/svc/mail") (Some "host1");
  Ns.checkpoint a.ns;
  Replica.set_value a.replica (p "/svc/news") (Some "host2");
  let peer_lsn = (Ns.stats a.ns).Smalldb.lsn in
  check Alcotest.int "peer on its second generation" 1
    (Ns.stats a.ns).Smalldb.generation;
  check Alcotest.int "peer log non-empty" 1 (Ns.stats a.ns).Smalldb.log_entries;
  let client_t, server_t = Rpc.Inproc.pair () in
  let thread = Thread.create (fun () -> Proto.serve a.ns server_t) () in
  let client = Proto.Client.create client_t in
  let fresh_store = Mem.create_store ~seed:10 () in
  (match Replica.repair_from_peer client (Mem.fs fresh_store) with
  | Error e -> Alcotest.fail e
  | Ok cloned ->
    check Alcotest.(option string) "cloned value" (Some "host1")
      (Ns.lookup cloned (p "/svc/mail"));
    check Alcotest.string "clone converged" (Ns.digest a.ns) (Ns.digest cloned);
    let st = Ns.stats cloned in
    check Alcotest.int "clone keeps the peer's lsn" peer_lsn st.Smalldb.lsn;
    check Alcotest.int "clone's log is empty" 0 st.Smalldb.log_entries;
    check Alcotest.(list string) "clone's files"
      [ "checkpoint0"; "logfile0"; "version" ]
      (List.sort compare (Mem.file_names fresh_store));
    (* The peer pushes its next update to the clone as to any replica
       that is up to date ([add_peer]'s default position). *)
    let clone_t, clone_server_t = Rpc.Inproc.pair () in
    let clone_thread =
      Thread.create (fun () -> Proto.serve cloned clone_server_t) ()
    in
    Replica.add_peer a.replica ~id:"clone" (Proto.Client.create clone_t);
    Replica.set_value a.replica (p "/svc/time") (Some "host3");
    check Alcotest.bool "flushed" true (Replica.flush a.replica);
    check Alcotest.int "the push commits at the next lsn" (peer_lsn + 1)
      (Ns.stats cloned).Smalldb.lsn;
    check Alcotest.string "still converged" (Ns.digest a.ns) (Ns.digest cloned);
    Replica.shutdown a.replica;
    clone_server_t.Rpc.Transport.close ();
    Thread.join clone_thread;
    (* The clone is durable: reopen from its own disk. *)
    Ns.close cloned;
    let reopened = Ns.open_exn (Mem.fs fresh_store) in
    check Alcotest.(option string) "durable clone" (Some "host3")
      (Ns.lookup reopened (p "/svc/time"));
    check Alcotest.int "durable lsn" (peer_lsn + 1) (Ns.stats reopened).Smalldb.lsn;
    Ns.close reopened);
  Proto.Client.close client;
  server_t.Rpc.Transport.close ();
  Thread.join thread

let test_three_replicas_chain () =
  let a = make_cell "a" 11 and b = make_cell "b" 12 and c = make_cell "c" 13 in
  ignore (connect a b);
  ignore (connect a c);
  for i = 0 to 9 do
    Replica.set_value a.replica (p (Printf.sprintf "/n%d" i)) (Some (string_of_int i))
  done;
  check Alcotest.bool "flushed" true (Replica.flush a.replica);
  check Alcotest.string "a=b" (Ns.digest a.ns) (Ns.digest b.ns);
  check Alcotest.string "a=c" (Ns.digest a.ns) (Ns.digest c.ns);
  (* The paper's acceptable loss: updates at a dead replica that never
     propagated.  Kill the a->b link, update, and confirm only b lags.
     [flush] still drains the healthy peer even though it returns
     [false] for the dead one. *)
  shutdown b;
  Replica.set_value a.replica (p "/late") (Some "x");
  check Alcotest.bool "b undelivered" false (Replica.flush a.replica);
  check Alcotest.(option string) "c has it" (Some "x") (Ns.lookup c.ns (p "/late"));
  check Alcotest.(option string) "b does not" None (Ns.lookup b.ns (p "/late"));
  teardown a;
  teardown b;
  teardown c

let test_hung_peer_does_not_block_commits () =
  (* The acceptance test for non-blocking replication: a peer whose
     server never replies (transport up, reads hang) must not slow the
     local commit path.  The client deadline is deliberately huge so a
     pass cannot be explained by a fast RPC timeout. *)
  let a = make_cell "a" 31 in
  let client_t, _server_t_never_served = Rpc.Inproc.pair () in
  let client = Proto.Client.create ~deadline_s:60.0 client_t in
  Replica.add_peer a.replica ~id:"hung" client;
  let n = 20 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    Replica.set_value a.replica (p (Printf.sprintf "/k%d" i)) (Some (string_of_int i))
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.bool
    (Printf.sprintf "local commits fast despite hung peer (%.3fs)" elapsed)
    true (elapsed < 5.0);
  (match Replica.peers a.replica with
  | [ r ] ->
    check Alcotest.int "backlog counts unacked updates" n r.Replica.backlog;
    (* One update is stuck in flight; the rest wait in the outbox. *)
    check Alcotest.bool "outbox holds the overflow" true (r.Replica.queued >= n - 1)
  | _ -> Alcotest.fail "one peer");
  (* The gauges agree with the report (same registry cells). *)
  let depth =
    Sdb_obs.Metrics.gauge "sdb_replica_outbox_depth" ~help:""
      ~labels:[ ("replica", "a"); ("peer", "hung") ]
  in
  let backlog =
    Sdb_obs.Metrics.gauge "sdb_replica_backlog" ~help:""
      ~labels:[ ("replica", "a"); ("peer", "hung") ]
  in
  check Alcotest.bool "depth gauge populated" true
    (Sdb_obs.Metrics.gauge_value depth >= float_of_int (n - 1));
  check Alcotest.bool "backlog gauge populated" true
    (Sdb_obs.Metrics.gauge_value backlog >= float_of_int n);
  (* Shutdown closes the client, which wakes the sender blocked on the
     hung transport — no 60 s wait. *)
  let t1 = Unix.gettimeofday () in
  Replica.shutdown a.replica;
  check Alcotest.bool "shutdown does not wait out the deadline" true
    (Unix.gettimeofday () -. t1 < 5.0)

let test_outbox_overflow_marks_lagging () =
  (* A bounded outbox: when the hung peer's queue fills, further
     commits mark it lagging (deferred to anti-entropy) instead of
     growing without bound — and still never block. *)
  let a = make_cell "a" 32 in
  let client_t, _never_served = Rpc.Inproc.pair () in
  let client = Proto.Client.create ~deadline_s:60.0 client_t in
  Replica.add_peer ~outbox_capacity:4 a.replica ~id:"hung" client;
  for i = 0 to 11 do
    Replica.set_value a.replica (p (Printf.sprintf "/o%d" i)) (Some "v")
  done;
  (match Replica.peers a.replica with
  | [ r ] ->
    check Alcotest.bool "lagging after overflow" true r.Replica.lagging;
    check Alcotest.bool "queue bounded" true (r.Replica.queued <= 4);
    check Alcotest.int "nothing lost locally" 12 r.Replica.backlog
  | _ -> Alcotest.fail "one peer");
  Replica.shutdown a.replica

let test_repair_from_peer_after_refused_open () =
  (* The §4 story end to end: interior damage in the previous
     generation's log (with valid entries beyond it) makes the
     hard-error fallback refuse the store outright — and
     [repair_from_peer] then rebuilds that same store from a healthy
     replica, digest-verified. *)
  let module Store = Sdb_checkpoint.Checkpoint_store in
  let retain = { Smalldb.default_config with retain_previous = true } in
  let big = String.make 2000 'v' in
  let apply ns =
    for i = 0 to 4 do
      Ns.set_value ns (p (Printf.sprintf "/k%d" i)) (Some big)
    done
  in
  (* The victim: data across two generations, previous retained. *)
  let vstore = Mem.create_store ~seed:41 () in
  let vfs = Mem.fs vstore in
  let victim = Ns.open_exn ~config:retain vfs in
  apply victim;
  Ns.checkpoint victim;
  Ns.set_value victim (p "/after") (Some "ckpt");
  Ns.close victim;
  (* The healthy peer holds the same data (it had all propagated). *)
  let peer = make_cell "peer" 42 in
  apply peer.ns;
  Ns.set_value peer.ns (p "/after") (Some "ckpt");
  (* A hard error in the current checkpoint forces the fallback path;
     interior damage in the retained log makes the fallback refuse
     rather than silently drop the entries beyond it. *)
  Mem.damage vstore ~file:(Store.checkpoint_file 1) ~offset:100 ~len:50;
  Mem.damage vstore ~file:(Store.log_file 0) ~offset:2500 ~len:100;
  (match Ns.open_ ~config:retain vfs with
  | Ok _ -> Alcotest.fail "damaged store opened anyway"
  | Error _ -> ());
  (* Repair the same store in place from the peer. *)
  let client_t, server_t = Rpc.Inproc.pair () in
  let thread = Thread.create (fun () -> Proto.serve peer.ns server_t) () in
  let client = Proto.Client.create client_t in
  (match Replica.repair_from_peer ~config:retain client vfs with
  | Error e -> Alcotest.fail e
  | Ok repaired ->
    check Alcotest.(option string) "value restored" (Some big)
      (Ns.lookup repaired (p "/k3"));
    check Alcotest.string "digest matches the healthy peer"
      (Ns.digest peer.ns) (Ns.digest repaired);
    let r = Ns.scrub repaired in
    check Alcotest.int "scrub clean after repair" 0
      (List.length r.Smalldb.findings);
    check Alcotest.bool "replay consistent" true r.Smalldb.replay_consistent;
    (* The repaired store is durable on its own disk. *)
    Ns.close repaired;
    let reopened = Ns.open_exn ~config:retain vfs in
    check Alcotest.(option string) "durable" (Some "ckpt")
      (Ns.lookup reopened (p "/after"));
    Ns.close reopened);
  Proto.Client.close client;
  server_t.Rpc.Transport.close ();
  Thread.join thread;
  teardown peer

let test_scrub_and_health_rpc () =
  (* The scrub verb over the wire: a served name server can be scrubbed
     and health-checked remotely. *)
  let a = make_cell "a" 51 in
  Ns.set_value a.ns (p "/x") (Some "1");
  let client_t, server_t = Rpc.Inproc.pair () in
  let thread = Thread.create (fun () -> Proto.serve a.ns server_t) () in
  let client = Proto.Client.create client_t in
  (match Proto.Client.health client with
  | `Healthy -> ()
  | _ -> Alcotest.fail "expected healthy over rpc");
  let r = Proto.Client.scrub client ~repair:false in
  check Alcotest.int "clean over rpc" 0 (List.length r.Smalldb.findings);
  check Alcotest.bool "consistent over rpc" true r.Smalldb.replay_consistent;
  (* Damage the log; a repairing scrub over the wire fixes it. *)
  let gen = (Ns.stats a.ns).Smalldb.generation in
  Mem.damage a.store ~file:(Sdb_checkpoint.Checkpoint_store.log_file gen)
    ~offset:30 ~len:4;
  let r2 = Proto.Client.scrub client ~repair:true in
  check Alcotest.bool "damage seen over rpc" true (r2.Smalldb.findings <> []);
  check Alcotest.bool "repaired over rpc" true r2.Smalldb.repaired;
  let r3 = Proto.Client.scrub client ~repair:false in
  check Alcotest.int "clean after remote repair" 0
    (List.length r3.Smalldb.findings);
  Proto.Client.close client;
  server_t.Rpc.Transport.close ();
  Thread.join thread;
  teardown a

(* ------------------------------------------------------------------ *)
(* Network-fault survival                                              *)

module Detector = Sdb_replica.Detector
module Backoff = Sdb_rpc.Backoff
module Fault_net = Sdb_rpc.Fault_net

let wait_for ?(timeout_s = 5.0) f =
  let deadline = Sdb_util.Mono.now_s () +. timeout_s in
  let rec go () =
    if f () then true
    else if Sdb_util.Mono.now_s () >= deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let peer_health replica =
  match Replica.peers replica with
  | [ r ] -> r.Replica.health
  | _ -> Alcotest.fail "one peer expected"

let fast_health =
  {
    Replica.detector =
      {
        Detector.heartbeat_interval_s = 0.05;
        suspect_after_s = 0.15;
        dead_after_s = 0.5;
      };
    auto_catch_up = true;
    catch_up_backoff =
      { Backoff.initial_s = 0.02; multiplier = 2.0; max_s = 0.2; jitter = true };
    catch_up_budget = Backoff.Budget.unlimited;
  }

let test_anti_entropy_races_commits () =
  (* Anti-entropy replaying a log suffix while fresh commits keep
     arriving: the two paths serialize per peer (catch-up parks the
     sender and drains any in-flight push), and the replicas converge
     once both finish — no deadlock, no lost update. *)
  let a = make_cell "a" 60 and b = make_cell "b" 61 in
  ignore (connect a b);
  Replica.set_value a.replica (p "/seed") (Some "0");
  check Alcotest.bool "seeded" true (Replica.flush a.replica);
  (* Partition, accumulate a suffix to replay. *)
  shutdown b;
  for i = 1 to 20 do
    Replica.set_value a.replica (p (Printf.sprintf "/pre/%d" i)) (Some "x")
  done;
  ignore (Replica.flush ~timeout_s:0.5 a.replica);
  ignore (connect ~how:`Reconnect a b);
  (* Race: a writer commits while anti-entropy replays. *)
  let writer =
    Thread.create
      (fun () ->
        for i = 1 to 30 do
          Replica.set_value a.replica (p (Printf.sprintf "/race/%d" i)) (Some "y");
          if i mod 10 = 0 then Thread.delay 0.001
        done)
      ()
  in
  Replica.anti_entropy a.replica;
  Thread.join writer;
  (* Whatever raced past the catch-up is drained by the outbox or one
     more round; either way the stores converge. *)
  ignore (Replica.flush a.replica);
  if not (String.equal (Ns.digest a.ns) (Ns.digest b.ns)) then begin
    Replica.anti_entropy a.replica;
    ignore (Replica.flush a.replica)
  end;
  check Alcotest.string "converged under racing commits" (Ns.digest a.ns)
    (Ns.digest b.ns);
  check Alcotest.(option string) "late value present" (Some "y")
    (Ns.lookup b.ns (p "/race/30"));
  teardown a;
  teardown b

let test_flapping_peer_applies_exactly_once () =
  (* A peer that flaps reachable → unreachable → reachable: after each
     heal the outbox/anti-entropy drains exactly the missed suffix.
     Every commit on [b] is counted through its subscription stream —
     duplicate application would show up as extra commits. *)
  let a = make_cell "a" 62 and b = make_cell "b" 63 in
  let applied = Atomic.make 0 in
  let sub =
    Ns.Db.subscribe (Ns.db b.ns) (fun _lsn _u -> Atomic.incr applied)
  in
  ignore (connect a b);
  let batch tag =
    for i = 1 to 10 do
      Replica.set_value a.replica (p (Printf.sprintf "/%s/%d" tag i)) (Some tag)
    done
  in
  batch "up1";
  check Alcotest.bool "drained while up" true (Replica.flush a.replica);
  (* Flap down: these commits must wait for the heal. *)
  shutdown b;
  batch "down1";
  ignore (Replica.flush ~timeout_s:0.3 a.replica);
  ignore (connect ~how:`Reconnect a b);
  Replica.anti_entropy a.replica;
  (* Flap again. *)
  shutdown b;
  batch "down2";
  ignore (Replica.flush ~timeout_s:0.3 a.replica);
  ignore (connect ~how:`Reconnect a b);
  Replica.anti_entropy a.replica;
  batch "up2";
  check Alcotest.bool "drained after second heal" true (Replica.flush a.replica);
  check Alcotest.string "converged" (Ns.digest a.ns) (Ns.digest b.ns);
  check Alcotest.int "each update applied exactly once" 40 (Atomic.get applied);
  Ns.Db.unsubscribe (Ns.db b.ns) sub;
  teardown a;
  teardown b

let test_heartbeat_detects_and_self_heals () =
  (* The acceptance scenario, in miniature: partition → suspect → dead
     while commits keep flowing, then heal → revive → automatic
     convergence with no manual anti_entropy call. *)
  let a = make_cell "a" 64 and b = make_cell "b" 65 in
  ignore (connect a b);
  Replica.start_health ~config:fast_health a.replica;
  Replica.set_value a.replica (p "/h/pre") (Some "1");
  check Alcotest.bool "replicating while alive" true (Replica.flush a.replica);
  check Alcotest.bool "probed alive" true
    (wait_for (fun () -> peer_health a.replica = Detector.Alive));
  (* Partition: kill b's server side. *)
  shutdown b;
  (* Commits never block on the dead peer. *)
  let t0 = Sdb_util.Mono.now_s () in
  Replica.set_value a.replica (p "/h/during") (Some "2");
  let dt = Sdb_util.Mono.now_s () -. t0 in
  check Alcotest.bool "commit latency independent of the partition" true
    (dt < 0.5);
  check Alcotest.bool "suspected within threshold" true
    (wait_for ~timeout_s:2.0 (fun () -> peer_health a.replica <> Detector.Alive));
  check Alcotest.bool "declared dead within threshold" true
    (wait_for ~timeout_s:3.0 (fun () -> peer_health a.replica = Detector.Dead));
  (* Dead stays dead without a successful heartbeat. *)
  Thread.delay 0.2;
  check Alcotest.bool "no spontaneous revival" true
    (peer_health a.replica = Detector.Dead);
  (* Heal.  The monitor must revive the peer and converge on its own. *)
  ignore (connect ~how:`Reconnect a b);
  check Alcotest.bool "revived by a successful heartbeat" true
    (wait_for ~timeout_s:3.0 (fun () -> peer_health a.replica = Detector.Alive));
  check Alcotest.bool "self-healed without manual anti-entropy" true
    (wait_for ~timeout_s:5.0 (fun () ->
         String.equal (Ns.digest a.ns) (Ns.digest b.ns)));
  check Alcotest.(option string) "partition-era update arrived" (Some "2")
    (Ns.lookup b.ns (p "/h/during"));
  teardown a;
  teardown b

let test_resumable_repair_under_resets () =
  (* Full-state repair over a connection that keeps resetting: the
     chunked transfer resumes (idempotent chunk fetches over a
     reconnect factory) and the rebuilt store is digest-identical. *)
  let a = make_cell "a" 66 in
  for i = 1 to 60 do
    Ns.set_value a.ns
      (p (Printf.sprintf "/blob/k%02d" i))
      (Some (String.make 200 (Char.chr (Char.code 'a' + (i mod 26)))))
  done;
  let ctl = Fault_net.create ~seed:11 () in
  let fresh () =
    let client_t, server_t = Rpc.Inproc.pair () in
    let thread = Thread.create (fun () -> Proto.serve a.ns server_t) () in
    a.server_threads <- thread :: a.server_threads;
    a.server_transports <- server_t :: a.server_transports;
    Fault_net.wrap ctl client_t
  in
  let client =
    Proto.Client.create ~deadline_s:2.0 ~retry:Rpc.default_retry
      ~reconnect:fresh (fresh ())
  in
  (* Every ~8th operation resets the connection mid-transfer. *)
  Fault_net.set_fault_rate ctl ~op:`Send 0.12;
  let store = Mem.create_store ~seed:67 () in
  (match Replica.repair_from_peer ~chunk_bytes:512 client (Mem.fs store) with
  | Error e -> Alcotest.fail ("repair under resets failed: " ^ e)
  | Ok ns2 ->
    check Alcotest.string "rebuilt store digest-identical"
      (Ns.digest a.ns) (Ns.digest ns2);
    Ns.close ns2);
  check Alcotest.bool "resets were actually injected" true
    (Fault_net.injected ctl > 0);
  Fault_net.clear ctl;
  (try Proto.Client.close client with Rpc.Rpc_error _ -> ());
  teardown a

let () =
  Helpers.run "replica"
    [
      ( "propagation",
        [
          Alcotest.test_case "eager propagation" `Quick test_eager_propagation;
          Alcotest.test_case "three replicas" `Quick test_three_replicas_chain;
          Alcotest.test_case "any update path propagates" `Quick
            test_propagation_via_any_path;
          Alcotest.test_case "subscription api" `Quick test_subscription_api;
        ] );
      ( "non-blocking",
        [
          Alcotest.test_case "hung peer does not block commits" `Quick
            test_hung_peer_does_not_block_commits;
          Alcotest.test_case "outbox overflow marks lagging" `Quick
            test_outbox_overflow_marks_lagging;
        ] );
      ( "reconciliation",
        [
          Alcotest.test_case "unreachable + anti-entropy" `Quick
            test_unreachable_peer_and_anti_entropy;
          Alcotest.test_case "snapshot fallback" `Quick
            test_anti_entropy_snapshot_fallback;
          Alcotest.test_case "converged_with" `Quick test_converged_with;
          Alcotest.test_case "anti-entropy races concurrent commits" `Quick
            test_anti_entropy_races_commits;
          Alcotest.test_case "flapping peer applies exactly once" `Quick
            test_flapping_peer_applies_exactly_once;
        ] );
      ( "self-healing",
        [
          Alcotest.test_case "heartbeat detects partition and self-heals" `Quick
            test_heartbeat_detects_and_self_heals;
          Alcotest.test_case "resumable repair under connection resets" `Quick
            test_resumable_repair_under_resets;
        ] );
      ( "hard-errors",
        [
          Alcotest.test_case "clone from peer" `Quick test_clone_from_peer;
          Alcotest.test_case "repair_from_peer after refused open" `Quick
            test_repair_from_peer_after_refused_open;
          Alcotest.test_case "scrub and health over rpc" `Quick
            test_scrub_and_health_rpc;
        ] );
    ]
