(* Fault_net: the network fault injector.  Faults are checked both at
   the raw-transport level (deterministic, message by message) and
   through a full RPC client/server conversation (poisoning, retry,
   reconnection — the paths the chaos suite leans on). *)

module P = Sdb_pickle.Pickle
module Rpc = Sdb_rpc.Rpc
module Fault_net = Sdb_rpc.Fault_net
module Backoff = Sdb_rpc.Backoff

let check = Alcotest.check

let echo_handlers =
  [ Rpc.Server.handler ~meth:"echo" P.string P.string (fun s -> s) ]

(* An echo server over an inproc pair whose CLIENT side is wrapped
   against [ctl]; returns the wrapped transport and a stop function. *)
let wrapped_pair ?peer ctl =
  let client_t, server_t = Rpc.Inproc.pair () in
  let thread =
    Thread.create (fun () -> Rpc.Server.serve ~handlers:echo_handlers server_t) ()
  in
  let wrapped = Fault_net.wrap ctl ?peer client_t in
  let stop () =
    server_t.Rpc.Transport.close ();
    (try wrapped.Rpc.Transport.close () with Rpc.Rpc_error _ -> ());
    Thread.join thread
  in
  (wrapped, stop)

(* Echo is read-only: declared idempotent so clients built with a
   reconnect factory retry it after an injected transport failure. *)
let echo client s =
  Rpc.Client.call ~idempotent:true client ~meth:"echo" P.string P.string s

let test_passthrough () =
  let ctl = Fault_net.create () in
  let wrapped, stop = wrapped_pair ctl in
  let client = Rpc.Client.create wrapped in
  check Alcotest.string "clean echo" "hello" (echo client "hello");
  check Alcotest.string "clean echo 2" "world" (echo client "world");
  check Alcotest.bool "sends counted" true (Fault_net.ops ctl ~op:`Send >= 2);
  check Alcotest.bool "recvs counted" true (Fault_net.ops ctl ~op:`Recv >= 2);
  check Alcotest.int "nothing injected" 0 (Fault_net.injected ctl);
  Rpc.Client.close client;
  stop ()

let test_fail_nth_resets () =
  let ctl = Fault_net.create () in
  let wrapped, stop = wrapped_pair ctl in
  let client = Rpc.Client.create wrapped in
  check Alcotest.string "first call clean" "a" (echo client "a");
  (* The next send resets the connection. *)
  Fault_net.fail_nth ctl ~op:`Send ~n:1 ();
  (match echo client "b" with
  | _ -> Alcotest.fail "expected a connection reset"
  | exception Rpc.Rpc_error m ->
    check Alcotest.bool "reset message" true
      (m = Fault_net.reset_message
      || String.length m >= String.length Fault_net.reset_message));
  check Alcotest.bool "client poisoned" true (Rpc.Client.broken client);
  check Alcotest.bool "fault recorded" true (Fault_net.injected ctl >= 1);
  Rpc.Client.close client;
  stop ()

let test_reset_recovers_via_reconnect () =
  (* Resets wrapped in a reconnect factory: the idempotent call retries
     over a fresh (also wrapped) transport and succeeds. *)
  let ctl = Fault_net.create () in
  let stops = ref [] in
  let fresh () =
    let wrapped, stop = wrapped_pair ctl in
    stops := stop :: !stops;
    wrapped
  in
  let client =
    Rpc.Client.create ~retry:Rpc.default_retry ~reconnect:fresh (fresh ())
  in
  check Alcotest.string "before fault" "x" (echo client "x");
  Fault_net.fail_nth ctl ~op:`Send ~n:1 ();
  check Alcotest.string "retried over a fresh transport" "y" (echo client "y");
  check Alcotest.bool "healthy again" false (Rpc.Client.broken client);
  Rpc.Client.close client;
  List.iter (fun stop -> stop ()) !stops

let test_partition_and_heal () =
  let ctl = Fault_net.create () in
  let wrapped, stop = wrapped_pair ~peer:"b" ctl in
  let client = Rpc.Client.create ~deadline_s:0.1 wrapped in
  check Alcotest.string "reachable before" "1" (echo client "1");
  Fault_net.partition ctl "b";
  check Alcotest.bool "partitioned" true (Fault_net.partitioned ctl "b");
  (* Blackholed: the send vanishes, so the call dies on its deadline. *)
  (match echo client "2" with
  | _ -> Alcotest.fail "expected deadline under partition"
  | exception Rpc.Rpc_error _ -> ());
  Fault_net.heal ctl "b";
  check Alcotest.bool "healed" false (Fault_net.partitioned ctl "b");
  (* The old client desynced (poisoned by the deadline); a fresh one
     over the healed network works. *)
  let wrapped2, stop2 = wrapped_pair ~peer:"b" ctl in
  let client2 = Rpc.Client.create ~deadline_s:0.5 wrapped2 in
  check Alcotest.string "reachable after heal" "3" (echo client2 "3");
  Rpc.Client.close client;
  Rpc.Client.close client2;
  stop ();
  stop2 ()

let test_untagged_never_partitioned () =
  let ctl = Fault_net.create () in
  Fault_net.partition ctl "b";
  let wrapped, stop = wrapped_pair ctl in
  (* no ~peer *)
  let client = Rpc.Client.create ~deadline_s:0.5 wrapped in
  check Alcotest.string "untagged unaffected" "ok" (echo client "ok");
  Rpc.Client.close client;
  stop ()

let test_drop_is_silent () =
  let ctl = Fault_net.create () in
  let wrapped, stop = wrapped_pair ctl in
  let client = Rpc.Client.create ~deadline_s:0.1 wrapped in
  Fault_net.set_drop_rate ctl 1.0;
  (match echo client "gone" with
  | _ -> Alcotest.fail "expected the dropped request to time out"
  | exception Rpc.Rpc_error _ -> ());
  check Alcotest.bool "drop recorded" true (Fault_net.injected ctl >= 1);
  Fault_net.set_drop_rate ctl 0.0;
  Rpc.Client.close client;
  stop ()

let test_duplicate_desyncs_then_recovers () =
  (* A duplicated request produces two responses; the client reads the
     stale one on its next call, poisons itself, and — with a
     reconnect factory — recovers on retry. *)
  let ctl = Fault_net.create () in
  let stops = ref [] in
  let fresh () =
    let wrapped, stop = wrapped_pair ctl in
    stops := stop :: !stops;
    wrapped
  in
  let client =
    Rpc.Client.create ~deadline_s:1.0 ~retry:Rpc.default_retry ~reconnect:fresh
      (fresh ())
  in
  Fault_net.set_dup_rate ctl 1.0;
  check Alcotest.string "dup'd call still answers" "a" (echo client "a");
  Fault_net.set_dup_rate ctl 0.0;
  (* The duplicate's second response is still queued: the next call
     reads it, detects the desync, reconnects, and retries. *)
  check Alcotest.string "recovered from desync" "b" (echo client "b");
  check Alcotest.bool "dup recorded" true (Fault_net.injected ctl >= 1);
  Rpc.Client.close client;
  List.iter (fun stop -> stop ()) !stops

let test_reorder_at_transport_level () =
  (* RPC conversations are strictly serial, so reordering is visible
     only on raw pipelined sends: with rate 1 the first message is held
     and overtaken by the second. *)
  let ctl = Fault_net.create () in
  let a, b = Rpc.Inproc.pair () in
  let wa = Fault_net.wrap ctl a in
  Fault_net.set_reorder_rate ctl 1.0;
  wa.Rpc.Transport.send "first";
  (* "first" is held back; "second" is also eligible for holding, but
     releasing the previous hold happens on the next send. *)
  Fault_net.set_reorder_rate ctl 0.0;
  wa.Rpc.Transport.send "second";
  check Alcotest.string "second overtakes" "second" (b.Rpc.Transport.recv ());
  check Alcotest.string "held message follows" "first" (b.Rpc.Transport.recv ());
  wa.Rpc.Transport.close ();
  b.Rpc.Transport.close ()

let test_delay_slows_sends () =
  let ctl = Fault_net.create () in
  let wrapped, stop = wrapped_pair ctl in
  let client = Rpc.Client.create wrapped in
  Fault_net.set_delay ctl 0.05;
  let t0 = Sdb_util.Mono.now_s () in
  check Alcotest.string "delayed echo" "slow" (echo client "slow");
  let dt = Sdb_util.Mono.now_s () -. t0 in
  check Alcotest.bool "took at least the injected delay" true (dt >= 0.045);
  Fault_net.set_delay ctl 0.0;
  Rpc.Client.close client;
  stop ()

let test_seeded_determinism () =
  (* The same seed must inject the same faults on the same workload. *)
  let run seed =
    let ctl = Fault_net.create ~seed () in
    Fault_net.set_drop_rate ctl 0.5;
    let a, b = Rpc.Inproc.pair () in
    let wa = Fault_net.wrap ctl a in
    for i = 1 to 50 do
      wa.Rpc.Transport.send (string_of_int i)
    done;
    wa.Rpc.Transport.close ();
    b.Rpc.Transport.close ();
    Fault_net.injected ctl
  in
  check Alcotest.int "same seed, same injections" (run 42) (run 42);
  check Alcotest.bool "some but not all dropped" true
    (let n = run 42 in
     n > 0 && n < 50)

let test_clear_restores_clean_network () =
  let ctl = Fault_net.create () in
  Fault_net.set_drop_rate ctl 1.0;
  Fault_net.set_delay ctl 5.0;
  Fault_net.partition ctl "b";
  Fault_net.fail_nth ctl ~op:`Send ~n:1 ();
  Fault_net.clear ctl;
  check Alcotest.bool "partition cleared" false (Fault_net.partitioned ctl "b");
  let wrapped, stop = wrapped_pair ~peer:"b" ctl in
  let client = Rpc.Client.create ~deadline_s:0.5 wrapped in
  check Alcotest.string "clean after clear" "ok" (echo client "ok");
  check Alcotest.int "nothing injected after clear" 0 (Fault_net.injected ctl);
  Rpc.Client.close client;
  stop ()

let () =
  Alcotest.run "fault_net"
    [
      ( "faults",
        [
          Alcotest.test_case "clean passthrough" `Quick test_passthrough;
          Alcotest.test_case "fail_nth resets the connection" `Quick
            test_fail_nth_resets;
          Alcotest.test_case "reset recovers via reconnect" `Quick
            test_reset_recovers_via_reconnect;
          Alcotest.test_case "partition blackholes, heal restores" `Quick
            test_partition_and_heal;
          Alcotest.test_case "untagged transports never partitioned" `Quick
            test_untagged_never_partitioned;
          Alcotest.test_case "drop is silent until the deadline" `Quick
            test_drop_is_silent;
          Alcotest.test_case "duplicate delivery desyncs then recovers" `Quick
            test_duplicate_desyncs_then_recovers;
          Alcotest.test_case "reorder holds a message back" `Quick
            test_reorder_at_transport_level;
          Alcotest.test_case "delay slows sends" `Quick test_delay_slows_sends;
          Alcotest.test_case "seeded and deterministic" `Quick
            test_seeded_determinism;
          Alcotest.test_case "clear restores a clean network" `Quick
            test_clear_restores_clean_network;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "full jitter stays within the cap" `Quick (fun () ->
              let b =
                Backoff.start
                  { Backoff.initial_s = 0.1; multiplier = 2.0; max_s = 0.4; jitter = true }
              in
              for _ = 1 to 20 do
                let d = Backoff.next_s b in
                check Alcotest.bool "within [0, max)" true (d >= 0.0 && d < 0.4)
              done);
          Alcotest.test_case "no jitter is the deterministic ladder" `Quick
            (fun () ->
              let b =
                Backoff.start
                  { Backoff.initial_s = 0.1; multiplier = 2.0; max_s = 1.0; jitter = false }
              in
              check (Alcotest.float 1e-9) "1st" 0.1 (Backoff.next_s b);
              check (Alcotest.float 1e-9) "2nd" 0.2 (Backoff.next_s b);
              check (Alcotest.float 1e-9) "3rd" 0.4 (Backoff.next_s b);
              Backoff.reset b;
              check (Alcotest.float 1e-9) "reset restarts" 0.1 (Backoff.next_s b));
          Alcotest.test_case "budget refills at its rate" `Quick (fun () ->
              let budget = Backoff.Budget.create ~burst:2.0 ~rate_per_s:50.0 () in
              check Alcotest.bool "first" true (Backoff.Budget.try_spend budget);
              check Alcotest.bool "second" true (Backoff.Budget.try_spend budget);
              check Alcotest.bool "burst exhausted" false
                (Backoff.Budget.try_spend budget);
              Thread.delay 0.1;
              check Alcotest.bool "refilled" true (Backoff.Budget.try_spend budget));
          Alcotest.test_case "unlimited never denies" `Quick (fun () ->
              for _ = 1 to 100 do
                check Alcotest.bool "spend" true
                  (Backoff.Budget.try_spend Backoff.Budget.unlimited)
              done);
        ] );
    ]
