module P = Sdb_pickle.Pickle
module Rpc = Sdb_rpc.Rpc
module Proto = Sdb_rpc.Ns_protocol
module Mem = Sdb_storage.Mem_fs
module Ns = Sdb_nameserver.Nameserver
module Data = Sdb_nameserver.Ns_data
module Path = Sdb_nameserver.Name_path

let check = Alcotest.check

let echo_handlers =
  [
    Rpc.Server.handler ~meth:"echo" P.string P.string (fun s -> s);
    Rpc.Server.handler ~meth:"add" (P.pair P.int P.int) P.int (fun (a, b) -> a + b);
    Rpc.Server.handler ~meth:"fail" P.unit P.unit (fun () -> failwith "deliberate");
  ]

let with_inproc_server handlers f =
  let client_t, server_t = Rpc.Inproc.pair () in
  let server = Thread.create (fun () -> Rpc.Server.serve ~handlers server_t) () in
  let client = Rpc.Client.create client_t in
  Fun.protect
    ~finally:(fun () ->
      Rpc.Client.close client;
      server_t.Rpc.Transport.close ();
      Thread.join server)
    (fun () -> f client)

let test_inproc_calls () =
  with_inproc_server echo_handlers (fun client ->
      check Alcotest.string "echo" "hello"
        (Rpc.Client.call client ~meth:"echo" P.string P.string "hello");
      check Alcotest.int "add" 7
        (Rpc.Client.call client ~meth:"add" (P.pair P.int P.int) P.int (3, 4)))

let test_server_exception_propagates () =
  with_inproc_server echo_handlers (fun client ->
      match Rpc.Client.call client ~meth:"fail" P.unit P.unit () with
      | () -> Alcotest.fail "expected Rpc_error"
      | exception Rpc.Rpc_error m ->
        Alcotest.check Alcotest.bool "mentions failure" true
          (String.length m > 0);
        (* The connection survives a handler failure. *)
        check Alcotest.string "still alive" "ok"
          (Rpc.Client.call client ~meth:"echo" P.string P.string "ok"))

let test_unknown_method () =
  with_inproc_server echo_handlers (fun client ->
      match Rpc.Client.call client ~meth:"nosuch" P.unit P.unit () with
      | () -> Alcotest.fail "expected Rpc_error"
      | exception Rpc.Rpc_error m ->
        Alcotest.check Alcotest.bool "mentions unknown" true
          (String.length m > 0))

let test_type_confusion_rejected () =
  with_inproc_server echo_handlers (fun client ->
      (* Call add with a string argument: server-side decode must fail
         cleanly. *)
      match Rpc.Client.call client ~meth:"add" P.string P.int "oops" with
      | _ -> Alcotest.fail "expected Rpc_error"
      | exception Rpc.Rpc_error _ -> ())

let test_closed_transport () =
  let client_t, server_t = Rpc.Inproc.pair () in
  let client = Rpc.Client.create client_t in
  server_t.Rpc.Transport.close ();
  match Rpc.Client.call client ~meth:"echo" P.string P.string "x" with
  | _ -> Alcotest.fail "expected Rpc_error"
  | exception Rpc.Rpc_error _ -> ()

let test_round_trip_counter () =
  let before = Rpc.Transport.round_trips () in
  with_inproc_server echo_handlers (fun client ->
      for _ = 1 to 5 do
        ignore (Rpc.Client.call client ~meth:"echo" P.string P.string "x")
      done);
  check Alcotest.int "global trips" 5 (Rpc.Transport.round_trips () - before)

(* ------------------------------------------------------------------ *)
(* Unix-domain socket transport                                          *)

let test_socket_end_to_end () =
  let path = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdb-rpc-%d.sock" (Unix.getpid ())) in
  let listener = Rpc.Socket.listen ~path (Rpc.Server.serve ~handlers:echo_handlers) in
  Fun.protect
    ~finally:(fun () -> Rpc.Socket.shutdown listener)
    (fun () ->
      let c1 = Rpc.Client.create (Rpc.Socket.connect ~path) in
      let c2 = Rpc.Client.create (Rpc.Socket.connect ~path) in
      check Alcotest.string "client 1" "a"
        (Rpc.Client.call c1 ~meth:"echo" P.string P.string "a");
      check Alcotest.string "client 2" "b"
        (Rpc.Client.call c2 ~meth:"echo" P.string P.string "b");
      (* Interleaved. *)
      for i = 1 to 10 do
        check Alcotest.int "alt add" (2 * i)
          (Rpc.Client.call c1 ~meth:"add" (P.pair P.int P.int) P.int (i, i));
        check Alcotest.string "alt echo" (string_of_int i)
          (Rpc.Client.call c2 ~meth:"echo" P.string P.string (string_of_int i))
      done;
      (* A large payload crosses framing correctly. *)
      let big = String.make 200_000 'B' in
      check Alcotest.string "large payload" big
        (Rpc.Client.call c1 ~meth:"echo" P.string P.string big);
      Rpc.Client.close c1;
      Rpc.Client.close c2)

let test_socket_connect_failure () =
  match Rpc.Socket.connect ~path:"/nonexistent/dir/sock" with
  | _ -> Alcotest.fail "expected Rpc_error"
  | exception Rpc.Rpc_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Deadlines, poisoning, retry                                           *)

let test_recv_deadline () =
  (* No server ever answers: the call must fail at the deadline, not
     block forever. *)
  let client_t, _unserved = Rpc.Inproc.pair () in
  let client = Rpc.Client.create ~deadline_s:0.05 client_t in
  let t0 = Unix.gettimeofday () in
  (match Rpc.Client.call client ~meth:"echo" P.string P.string "x" with
  | _ -> Alcotest.fail "expected deadline error"
  | exception Rpc.Rpc_error m ->
    check Alcotest.string "deadline message" Rpc.Transport.deadline_exceeded m);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.check Alcotest.bool "waited about the deadline" true
    (elapsed >= 0.04 && elapsed < 2.0);
  check Alcotest.bool "poisoned afterwards" true (Rpc.Client.broken client)

let test_socket_deadline () =
  (* The socket transport's SO_RCVTIMEO path: a slow handler holds the
     reply past the client's deadline. *)
  let handlers =
    Rpc.Server.handler ~meth:"slow" P.unit P.unit (fun () -> Thread.delay 0.5)
    :: echo_handlers
  in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sdb-rpc-dl-%d.sock" (Unix.getpid ()))
  in
  let listener = Rpc.Socket.listen ~path (Rpc.Server.serve ~handlers) in
  Fun.protect
    ~finally:(fun () -> Rpc.Socket.shutdown listener)
    (fun () ->
      let client = Rpc.Client.create ~deadline_s:0.05 (Rpc.Socket.connect ~path) in
      match Rpc.Client.call client ~meth:"slow" P.unit P.unit () with
      | () -> Alcotest.fail "expected deadline error"
      | exception Rpc.Rpc_error m ->
        check Alcotest.string "deadline message" Rpc.Transport.deadline_exceeded m;
        check Alcotest.bool "poisoned afterwards" true (Rpc.Client.broken client))

(* Structurally identical to the client's response codec, for forging
   wire messages in the desync test. *)
let codec_response_shape =
  P.record2 "rpc.response"
    (P.field "id" P.int fst)
    (P.field "payload" (P.result P.string P.string) snd)
    (fun id payload -> (id, payload))

let test_desync_poisons_client () =
  (* A faulty server answers with a response id that matches no
     request: the client must refuse the answer AND refuse to reuse the
     connection, or a later call could consume this stale response. *)
  let client_t, server_t = Rpc.Inproc.pair () in
  let server =
    Thread.create
      (fun () ->
        match server_t.Rpc.Transport.recv () with
        | _req ->
          server_t.Rpc.Transport.send
            (P.encode codec_response_shape (999, Ok (P.encode P.string "stale")))
        | exception Rpc.Rpc_error _ -> ())
      ()
  in
  let client = Rpc.Client.create client_t in
  (match Rpc.Client.call client ~meth:"echo" P.string P.string "x" with
  | _ -> Alcotest.fail "expected a desync error"
  | exception Rpc.Rpc_error m ->
    Alcotest.check Alcotest.bool "mentions the id mismatch" true
      (String.length m > 0));
  check Alcotest.bool "broken" true (Rpc.Client.broken client);
  (* Without [reconnect] every further call fails instead of reading
     whatever the dead connection still holds. *)
  (match Rpc.Client.call client ~meth:"echo" P.string P.string "y" with
  | _ -> Alcotest.fail "poisoned client must not answer"
  | exception Rpc.Rpc_error _ -> ());
  Thread.join server

let test_idempotent_retry_reconnects () =
  (* The first transport is already dead; [reconnect] supplies a live
     one and the idempotent call succeeds transparently. *)
  let dead_client, dead_server = Rpc.Inproc.pair () in
  dead_server.Rpc.Transport.close ();
  let served = ref [] in
  let fresh () =
    let c, s = Rpc.Inproc.pair () in
    let th = Thread.create (fun () -> Rpc.Server.serve ~handlers:echo_handlers s) () in
    served := (s, th) :: !served;
    c
  in
  let client =
    Rpc.Client.create ~retry:Rpc.default_retry ~reconnect:fresh dead_client
  in
  check Alcotest.string "retried onto the fresh transport" "hi"
    (Rpc.Client.call ~idempotent:true client ~meth:"echo" P.string P.string "hi");
  check Alcotest.bool "healthy after reconnect" false (Rpc.Client.broken client);
  Rpc.Client.close client;
  List.iter
    (fun (s, th) ->
      s.Rpc.Transport.close ();
      Thread.join th)
    !served

let test_non_idempotent_not_retried () =
  (* A non-idempotent call must fail on the first transport error: the
     request may have executed, so re-sending it is not safe. *)
  let dead_client, dead_server = Rpc.Inproc.pair () in
  dead_server.Rpc.Transport.close ();
  let client =
    Rpc.Client.create ~retry:Rpc.default_retry
      ~reconnect:(fun () -> Alcotest.fail "must not reconnect a non-idempotent call")
      dead_client
  in
  (match Rpc.Client.call client ~meth:"echo" P.string P.string "x" with
  | _ -> Alcotest.fail "expected failure"
  | exception Rpc.Rpc_error _ -> ());
  check Alcotest.bool "broken" true (Rpc.Client.broken client)

(* ------------------------------------------------------------------ *)
(* Name-server protocol                                                  *)

let p s = match Path.of_string s with Ok v -> v | Error e -> Alcotest.fail e

let with_ns_client f =
  let store = Mem.create_store ~seed:3 () in
  let ns = Ns.open_exn (Mem.fs store) in
  let client_t, server_t = Rpc.Inproc.pair () in
  let server = Thread.create (fun () -> Proto.serve ns server_t) () in
  let client = Proto.Client.create client_t in
  Fun.protect
    ~finally:(fun () ->
      Proto.Client.close client;
      server_t.Rpc.Transport.close ();
      Thread.join server)
    (fun () -> f ns client)

let test_ns_protocol_roundtrip () =
  with_ns_client (fun ns client ->
      Proto.Client.set_value client (p "/hosts/alpha") (Some "10.0.0.1");
      Proto.Client.create_name client (p "/empty");
      check Alcotest.(option string) "remote lookup" (Some "10.0.0.1")
        (Proto.Client.lookup client (p "/hosts/alpha"));
      check Alcotest.(option (list string)) "remote ls" (Some [ "alpha" ])
        (Proto.Client.list_children client (p "/hosts"));
      check Alcotest.int "count" 4 (Proto.Client.count_nodes client);
      (* Subtree ops. *)
      Proto.Client.write_subtree client (p "/sub")
        (Data.tree [ ("x", Data.leaf (Some "1")) ]);
      (match Proto.Client.export client (p "/sub") with
      | Some (Data.Tree t) -> check Alcotest.int "exported child" 1 (List.length t.tchildren)
      | None -> Alcotest.fail "export");
      (match Proto.Client.export ~depth:0 client (p "/sub") with
      | Some (Data.Tree t) -> check Alcotest.int "depth 0" 0 (List.length t.tchildren)
      | None -> Alcotest.fail "export depth");
      Proto.Client.delete_subtree client (p "/sub");
      check Alcotest.(option string) "deleted" None
        (Proto.Client.lookup client (p "/sub/x"));
      (* CAS over the wire. *)
      (match
         Proto.Client.compare_and_set client (p "/hosts/alpha")
           ~expected:(Some "10.0.0.1") (Some "10.0.0.9")
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (match
         Proto.Client.compare_and_set client (p "/hosts/alpha")
           ~expected:(Some "stale") (Some "zzz")
       with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "stale CAS succeeded");
      (* Replica support. *)
      check Alcotest.int "lsn" 5 (Proto.Client.lsn client);
      let lsn, digest, total = Proto.Client.fetch_meta client in
      check Alcotest.int "image lsn" 5 lsn;
      (match Proto.Client.fetch_chunk client ~lsn ~offset:0 ~len:total with
      | None -> Alcotest.fail "image moved"
      | Some image ->
        check Alcotest.string "image digest" digest (Digest.string image);
        (match Ns.install (Mem.fs (Mem.create_store ())) ~lsn image with
        | Error e -> Alcotest.fail e
        | Ok copy ->
          check Alcotest.int "installed lsn" 5 (Ns.stats copy).Smalldb.lsn;
          check Alcotest.string "installed state" (Ns.digest ns) (Ns.digest copy);
          Ns.close copy));
      check Alcotest.(option string) "another lsn is refused" None
        (Proto.Client.fetch_chunk client ~lsn:4 ~offset:0 ~len:1);
      (match Proto.Client.updates_since client 0 with
      | Some l -> check Alcotest.int "all updates" 5 (List.length l)
      | None -> Alcotest.fail "log covers 0");
      Proto.Client.checkpoint client;
      (match Proto.Client.updates_since client 0 with
      | None -> ()
      | Some _ -> Alcotest.fail "absorbed by checkpoint");
      let d = Proto.Client.digest client in
      check Alcotest.int "digest is md5" 16 (String.length d);
      (* Glob search over the wire. *)
      Proto.Client.set_value client (p "/svc/mail/port") (Some "25");
      Proto.Client.set_value client (p "/svc/news/port") (Some "119");
      (match Proto.Client.find client "/svc/*/port" with
      | Ok results ->
        check Alcotest.int "glob results" 2 (List.length results)
      | Error e -> Alcotest.fail e);
      match Proto.Client.find client "/a/**/b" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad pattern accepted")

let test_ns_protocol_local_remote_agree () =
  with_ns_client (fun ns client ->
      Proto.Client.set_value client (p "/a/b") (Some "v");
      check Alcotest.(option string) "local sees remote write" (Some "v")
        (Ns.lookup ns (p "/a/b"));
      Ns.set_value ns (p "/c") (Some "w");
      check Alcotest.(option string) "remote sees local write" (Some "w")
        (Proto.Client.lookup client (p "/c")))

let test_traces_verb () =
  (* With a slow-span ring installed at threshold 0 every served
     request leaves an rpc.server span, retrievable over the traces
     verb with its req correlation id. *)
  let module Trace = Sdb_obs.Trace in
  Trace.set_sink (Some (Trace.Slow.install ~capacity:64 ~threshold_s:0.0));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      with_ns_client (fun _ns client ->
          Proto.Client.set_value client (p "/traced") (Some "v");
          ignore (Proto.Client.lookup client (p "/traced"));
          let spans = Proto.Client.traces client ~max_n:50 ~min_dur_s:0.0 in
          let servers =
            List.filter (fun s -> s.Trace.name = "rpc.server") spans
          in
          (* set_value, lookup, and the traces call itself is in flight
             while serving, so only the first two are guaranteed. *)
          check Alcotest.bool "spans for served calls" true
            (List.length servers >= 2);
          let meths =
            List.filter_map (fun s -> List.assoc_opt "meth" s.Trace.attrs) servers
          in
          check Alcotest.bool "lookup span present" true
            (List.mem "lookup" meths);
          List.iter
            (fun s ->
              check Alcotest.bool "req id attached" true
                (List.mem_assoc "req" s.Trace.attrs))
            servers;
          (* The threshold filter applies at query time too. *)
          check Alcotest.int "min_dur_s filters everything" 0
            (List.length
               (Proto.Client.traces client ~max_n:50 ~min_dur_s:3600.0))))

let test_inproc_delay () =
  let client_t, server_t = Rpc.Inproc.pair ~delay_s:0.01 () in
  let server = Thread.create (fun () -> Rpc.Server.serve ~handlers:echo_handlers server_t) () in
  let client = Rpc.Client.create client_t in
  let t0 = Unix.gettimeofday () in
  ignore (Rpc.Client.call client ~meth:"echo" P.string P.string "x");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.check Alcotest.bool "round trip at least 2x delay" true (elapsed >= 0.02);
  Rpc.Client.close client;
  server_t.Rpc.Transport.close ();
  Thread.join server

let () =
  Helpers.run "rpc"
    [
      ( "inproc",
        [
          Alcotest.test_case "calls" `Quick test_inproc_calls;
          Alcotest.test_case "server exception" `Quick test_server_exception_propagates;
          Alcotest.test_case "unknown method" `Quick test_unknown_method;
          Alcotest.test_case "type confusion rejected" `Quick test_type_confusion_rejected;
          Alcotest.test_case "closed transport" `Quick test_closed_transport;
          Alcotest.test_case "round-trip counter" `Quick test_round_trip_counter;
          Alcotest.test_case "simulated delay" `Quick test_inproc_delay;
        ] );
      ( "socket",
        [
          Alcotest.test_case "end to end" `Quick test_socket_end_to_end;
          Alcotest.test_case "connect failure" `Quick test_socket_connect_failure;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "recv deadline (inproc)" `Quick test_recv_deadline;
          Alcotest.test_case "recv deadline (socket)" `Quick test_socket_deadline;
          Alcotest.test_case "desync poisons client" `Quick test_desync_poisons_client;
          Alcotest.test_case "idempotent retry reconnects" `Quick
            test_idempotent_retry_reconnects;
          Alcotest.test_case "non-idempotent not retried" `Quick
            test_non_idempotent_not_retried;
        ] );
      ( "ns-protocol",
        [
          Alcotest.test_case "full surface" `Quick test_ns_protocol_roundtrip;
          Alcotest.test_case "local and remote agree" `Quick
            test_ns_protocol_local_remote_agree;
          Alcotest.test_case "traces verb" `Quick test_traces_verb;
        ] );
    ]
