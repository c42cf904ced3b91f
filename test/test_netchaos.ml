(* Randomized network-fault torture test (the CI `network-chaos` job) —
   the network twin of test_chaos.ml.

   Each round builds a two-replica cell (A the origin, B the peer,
   connected over inproc transports wrapped in the Fault_net decorator
   with a reconnect factory), dials in random drop/duplicate/reorder/
   reset rates plus latency, opens and heals partitions mid-stream, and
   drives a sequenced workload on A with the health monitor running.
   The properties under test are ISSUE 8's acceptance criteria:

   - commits on A never block on the network, whatever the fault mix;
   - A's local state is always the full committed prefix;
   - after the storm ends (faults cleared, partition healed) the
     replicas converge {e on their own} — heartbeats revive the peer
     and the monitor's automatic catch-up drains the backlog; nobody
     calls anti_entropy by hand;
   - never a wedged thread (the CI timeout turns a hang into a failure).

   Usage: test_netchaos.exe [--seed N] [--rounds M] [--report FILE]
   Exit status: 0 all rounds clean, 1 invariant violated. *)

module Mem = Sdb_storage.Mem_fs
module Ns = Sdb_nameserver.Nameserver
module Path = Sdb_nameserver.Name_path
module Rpc = Sdb_rpc.Rpc
module Proto = Sdb_rpc.Ns_protocol
module Fault_net = Sdb_rpc.Fault_net
module Backoff = Sdb_rpc.Backoff
module Replica = Sdb_replica.Replica
module Detector = Sdb_replica.Detector
module Mono = Sdb_util.Mono

let report = Buffer.create 4096

let logf fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string report s;
      Buffer.add_char report '\n')
    fmt

let failures = ref 0

let violation fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      logf "VIOLATION: %s" s;
      Printf.eprintf "VIOLATION: %s\n%!" s)
    fmt

let p s = match Path.of_string s with Ok v -> v | Error e -> failwith e

let key i = p (Printf.sprintf "/net/k%04d" i)
let value i = Printf.sprintf "v%04d" i

(* A committed prefix check on the origin: every update the workload
   acked must be visible locally, partitions notwithstanding. *)
let prefix_ok ns n =
  let ok = ref true in
  for i = 0 to n - 1 do
    if Ns.lookup ns (key i) <> Some (value i) then ok := false
  done;
  !ok

let wait_for ~timeout_s f =
  let deadline = Mono.now_s () +. timeout_s in
  let rec go () =
    if f () then true
    else if Mono.now_s () >= deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let fast_health =
  {
    Replica.detector =
      {
        Detector.heartbeat_interval_s = 0.05;
        suspect_after_s = 0.15;
        dead_after_s = 0.6;
      };
    auto_catch_up = true;
    catch_up_backoff =
      { Backoff.initial_s = 0.02; multiplier = 2.0; max_s = 0.25; jitter = true };
    catch_up_budget = Backoff.Budget.unlimited;
  }

let round ~seed r =
  let rng = Random.State.make [| seed; r; 0x0E7 |] in
  let ctl = Fault_net.create ~seed:((seed * 31) + r) () in
  let store_a = Mem.create_store ~seed:((seed * 1000) + r) () in
  let ns_a = Ns.open_exn (Mem.fs store_a) in
  let replica = Replica.create ~id:"a" ns_a in
  let store_b = Mem.create_store ~seed:((seed * 1000) + r + 500) () in
  let ns_b = Ns.open_exn (Mem.fs store_b) in
  let server_threads = ref [] in
  let server_transports = ref [] in
  let fresh () =
    let client_t, server_t = Rpc.Inproc.pair () in
    let thread = Thread.create (fun () -> Proto.serve ns_b server_t) () in
    server_threads := thread :: !server_threads;
    server_transports := server_t :: !server_transports;
    Fault_net.wrap ctl ~peer:"b" client_t
  in
  let client =
    Proto.Client.create ~deadline_s:0.25 ~retry:Rpc.default_retry
      ~retry_budget:(Backoff.Budget.create ~rate_per_s:500.0 ())
      ~reconnect:fresh (fresh ())
  in
  Replica.add_peer replica ~id:"b" client;
  Replica.start_health ~config:fast_health replica;
  (* Dial in this round's weather. *)
  let dial what set lo hi =
    let x = lo +. Random.State.float rng (hi -. lo) in
    set x;
    logf "  %s=%.3f" what x;
    x
  in
  ignore (dial "drop" (Fault_net.set_drop_rate ctl) 0.0 0.12);
  ignore (dial "dup" (Fault_net.set_dup_rate ctl) 0.0 0.10);
  ignore (dial "reorder" (Fault_net.set_reorder_rate ctl) 0.0 0.10);
  ignore (dial "reset-send" (Fault_net.set_fault_rate ctl ~op:`Send) 0.0 0.06);
  ignore (dial "reset-recv" (Fault_net.set_fault_rate ctl ~op:`Recv) 0.0 0.04);
  Fault_net.set_delay ctl ~jitter_s:0.002 0.0;
  logf "round %d.%d" seed r;
  let n = 100 in
  (* One mid-stream full partition, opened at a random update index and
     held for a random wall-clock window — long enough (sometimes past
     [dead_after_s]) for heartbeats and pushes to really hit it. *)
  let part_from = 10 + Random.State.int rng 30 in
  let part_dur = 0.3 +. Random.State.float rng 1.7 in
  let heal_at = ref infinity in
  let worst = ref 0.0 in
  let worst_health = ref Detector.Alive in
  let note_health () =
    match Replica.peers replica with
    | [ x ] ->
      let rank = function
        | Detector.Alive -> 0
        | Detector.Suspect -> 1
        | Detector.Dead -> 2
      in
      if rank x.Replica.health > rank !worst_health then
        worst_health := x.Replica.health
    | _ -> ()
  in
  let deadline = Mono.now_s () +. 60.0 in
  let wedged = ref false in
  let i = ref 0 in
  while (not !wedged) && !i < n do
    if Mono.now_s () > deadline then begin
      violation "round %d.%d: wedged (commit loop overran its deadline)" seed r;
      wedged := true
    end
    else begin
      if !i = part_from then begin
        Fault_net.partition ctl "b";
        heal_at := Mono.now_s () +. part_dur
      end;
      if Mono.now_s () >= !heal_at then begin
        Fault_net.heal ctl "b";
        heal_at := infinity
      end;
      let t0 = Mono.now_s () in
      Replica.set_value replica (key !i) (Some (value !i));
      let dt = Mono.now_s () -. t0 in
      if dt > !worst then worst := dt;
      if dt > 1.0 then
        violation "round %d.%d: commit %d blocked %.3fs on the network" seed r
          !i dt;
      Thread.delay 0.008;
      note_health ();
      incr i
    end
  done;
  (* If the partition outlives the workload, sit it out: this is where
     long partitions push the detector to suspect and then dead. *)
  while !heal_at < infinity && Mono.now_s () < !heal_at do
    Thread.delay 0.05;
    note_health ()
  done;
  if !heal_at < infinity then Fault_net.heal ctl "b";
  if not (prefix_ok ns_a n) then
    violation "round %d.%d: origin lost its own committed prefix" seed r;
  (* Storm over: clean network, full heal.  Convergence must now happen
     on its own — heartbeat revival plus automatic catch-up; no manual
     anti_entropy. *)
  Fault_net.clear ctl;
  let converged =
    wait_for ~timeout_s:30.0 (fun () ->
        String.equal (Ns.digest ns_a) (Ns.digest ns_b))
  in
  let rep =
    match Replica.peers replica with [ x ] -> x | _ -> failwith "one peer"
  in
  logf
    "  worst-commit=%.4fs injected=%d storm-peak=%s peer=%s backlog=%d \
     converged=%b"
    !worst (Fault_net.injected ctl)
    (Detector.state_to_string !worst_health)
    (Detector.state_to_string rep.Replica.health)
    rep.Replica.backlog converged;
  if not converged then
    violation "round %d.%d: replicas did not self-heal after the storm" seed r
  else if not (prefix_ok ns_b n) then
    violation "round %d.%d: peer converged to the wrong state" seed r;
  Replica.shutdown replica;
  List.iter (fun t -> try t.Rpc.Transport.close () with _ -> ()) !server_transports;
  List.iter Thread.join !server_threads;
  Ns.close ns_a;
  Ns.close ns_b

let () =
  let seed = ref 1
  and rounds = ref 8
  and report_file = ref "netchaos-report.txt" in
  let rec parse = function
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--rounds" :: v :: rest ->
      rounds := int_of_string v;
      parse rest
    | "--report" :: v :: rest ->
      report_file := v;
      parse rest
    | [] -> ()
    | arg :: _ ->
      Printf.eprintf
        "usage: test_netchaos [--seed N] [--rounds M] [--report FILE]\n";
      Printf.eprintf "unknown argument: %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  logf "netchaos: seed=%d rounds=%d" !seed !rounds;
  for r = 1 to !rounds do
    round ~seed:!seed r
  done;
  let oc = open_out !report_file in
  output_string oc (Buffer.contents report);
  close_out oc;
  if !failures > 0 then begin
    Printf.eprintf "netchaos: %d violation(s); report in %s\n" !failures
      !report_file;
    exit 1
  end
  else Printf.printf "netchaos: seed=%d, %d rounds clean\n" !seed !rounds
