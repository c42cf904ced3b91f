(* The lock-free read route end to end: the engine routing queries
   through its atomically published root (read_path = `Epoch), readers
   in parallel domains, and the snapshot semantics observable over
   RPC. *)

module Mem = Sdb_storage.Mem_fs
module Ns = Sdb_nameserver.Nameserver
module Data = Sdb_nameserver.Ns_data
module Path = Sdb_nameserver.Name_path
module Proto = Sdb_rpc.Ns_protocol
module Rpc = Sdb_rpc.Rpc

let check = Alcotest.check
let p s = match Path.of_string s with Ok v -> v | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* The engine on the epoch route                                       *)

let epoch_ns ?(seed = 7) () =
  let store = Mem.create_store ~seed () in
  let config = { Smalldb.default_config with read_path = `Epoch } in
  (store, Ns.open_exn ~config (Mem.fs store))

(* A reader holding its snapshot across a concurrent committed update
   must keep seeing the pre-update version — and, unlike the Shared-lock
   route (where the updater's upgrade would drain this very reader,
   i.e. deadlock against it), the update commits while the reader is
   still inside its query. *)
let test_snapshot_across_update () =
  let _store, ns = epoch_ns () in
  Ns.set_value ns (p "/k") (Some "before");
  let entered = ref false and updated = ref false in
  let seen = ref None in
  let reader =
    Thread.create
      (fun () ->
        let v =
          Ns.Db.query (Ns.db ns) (fun root ->
              entered := true;
              while not !updated do
                Thread.yield ()
              done;
              (* The update has committed; this snapshot must not see it. *)
              match Data.pfind root (p "/k") with
              | Some n -> n.Data.pvalue
              | None -> None)
        in
        seen := Some v)
      ()
  in
  while not !entered do
    Thread.yield ()
  done;
  (* Commits without waiting for the pinned reader. *)
  Ns.set_value ns (p "/k") (Some "after");
  updated := true;
  Thread.join reader;
  check
    Alcotest.(option (option string))
    "pinned reader saw the pre-update version"
    (Some (Some "before"))
    !seen;
  check
    Alcotest.(option string)
    "a fresh query sees the update" (Some "after")
    (Ns.lookup ns (p "/k"));
  Ns.close ns

(* A raising reader must not wedge the engine. *)
let test_engine_raising_reader () =
  let _store, ns = epoch_ns ~seed:9 () in
  Ns.set_value ns (p "/x") (Some "1");
  (match Ns.Db.query (Ns.db ns) (fun _ -> raise Exit) with
  | _ -> Alcotest.fail "query should have raised"
  | exception Exit -> ());
  (* Updates still commit behind it. *)
  Ns.set_value ns (p "/x") (Some "2");
  check
    Alcotest.(option string)
    "engine still serving" (Some "2")
    (Ns.lookup ns (p "/x"));
  Ns.close ns

(* Readers in two domains of their own — real parallelism, not
   systhreads sharing one runtime lock — take [query_with_lsn] while
   the writer commits sequenced values.  Each value must pair with the
   LSN of the update that wrote it, and within one domain the LSNs a
   reader sees never go backwards (publication is in commit order). *)
let test_parallel_domain_pairing () =
  let _store, ns = epoch_ns ~seed:11 () in
  let seq = p "/seq" in
  Ns.set_value ns seq (Some "0");
  let base = snd (Ns.Db.query_with_lsn (Ns.db ns) ignore) in
  let writes = 200 in
  let abort = Atomic.make false in
  let reader () =
    (* Findings are collected here and checked on the main domain. *)
    let last = ref min_int and bad = ref [] in
    while !last < base + writes && not (Atomic.get abort) do
      let value, lsn =
        Ns.Db.query_with_lsn (Ns.db ns) (fun root ->
            match Data.pfind root seq with
            | Some n -> n.Data.pvalue
            | None -> None)
      in
      (match value with
      | Some v when int_of_string v = lsn - base -> ()
      | v ->
        bad :=
          Printf.sprintf "value %s with lsn %d (base %d)"
            (Option.value v ~default:"<none>") lsn base
          :: !bad);
      if lsn < !last then
        bad := Printf.sprintf "lsn went back from %d to %d" !last lsn :: !bad;
      last := lsn
    done;
    (!last, List.rev !bad)
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  (try
     for i = 1 to writes do
       Ns.set_value ns seq (Some (string_of_int i))
     done
   with e ->
     Atomic.set abort true;
     raise e);
  List.iteri
    (fun d dom ->
      let last, bad = Domain.join dom in
      check Alcotest.(list string) (Printf.sprintf "domain %d pairing" d) [] bad;
      check Alcotest.int
        (Printf.sprintf "domain %d ends at the tip" d)
        (base + writes) last)
    readers;
  Ns.close ns

(* ------------------------------------------------------------------ *)
(* Snapshot semantics over the wire                                    *)

(* Two RPC clients against one epoch-routed server: a writer streams
   sequenced values while a reader repeatedly fetches the server's
   checkpoint image ([fetch_meta] pins it through the engine's
   query_with_lsn on the epoch route) and installs it in a store of
   its own.  The payload and the LSN must come from the same published
   version: value i is committed by exactly the update that moved the
   LSN to base + i, and the installed store opens at the pinned LSN.
   The race is made certain, not left to the scheduler: the writer
   starts only once the reader's first snapshot has returned, and
   holds its last write until the reader has taken a snapshot strictly
   between the first and the last write. *)
let test_rpc_snapshot_consistency () =
  let _store, ns = epoch_ns ~seed:10 () in
  let first_snapshot = Atomic.make false
  and mid_run = Atomic.make false
  and abort = Atomic.make false in
  let await flag =
    while not (Atomic.get flag || Atomic.get abort) do
      Thread.yield ()
    done
  in
  let serve_pair () =
    let client_t, server_t = Rpc.Inproc.pair () in
    let server = Thread.create (fun () -> Proto.serve ns server_t) () in
    (Proto.Client.create client_t, server_t, server)
  in
  let wc, wst, wsrv = serve_pair () in
  let rc, rst, rsrv = serve_pair () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set abort true;
      Proto.Client.close wc;
      Proto.Client.close rc;
      wst.Rpc.Transport.close ();
      rst.Rpc.Transport.close ();
      Thread.join wsrv;
      Thread.join rsrv;
      Ns.close ns)
    (fun () ->
      Proto.Client.set_value wc (p "/seq") (Some "0");
      let base = Proto.Client.lsn rc in
      let writes = 50 in
      let write i = Proto.Client.set_value wc (p "/seq") (Some (string_of_int i)) in
      let writer =
        Thread.create
          (fun () ->
            await first_snapshot;
            for i = 1 to writes - 1 do
              write i
            done;
            await mid_run;
            if not (Atomic.get abort) then write writes)
          ()
      in
      let consistent = ref 0 in
      while Proto.Client.lsn rc < base + writes do
        let lsn, _, total = Proto.Client.fetch_meta rc in
        let copy =
          match Proto.Client.fetch_chunk rc ~lsn ~offset:0 ~len:total with
          | None -> Alcotest.fail "the pinned image moved"
          | Some image -> (
            match Ns.install (Mem.fs (Mem.create_store ())) ~lsn image with
            | Ok copy -> copy
            | Error e -> Alcotest.fail e)
        in
        Atomic.set first_snapshot true;
        if base < lsn && lsn < base + writes then Atomic.set mid_run true;
        check Alcotest.int "installed at the pinned lsn" lsn
          (Ns.stats copy).Smalldb.lsn;
        let value = Ns.lookup copy (p "/seq") in
        Ns.close copy;
        (match value with
        | Some v ->
          check Alcotest.int
            (Printf.sprintf "value %s pairs with lsn %d (base %d)" v lsn base)
            (lsn - base) (int_of_string v);
          incr consistent
        | None -> Alcotest.fail "/seq vanished mid-run")
      done;
      Thread.join writer;
      check Alcotest.bool "snapshots actually raced the writer" true
        (!consistent > 0);
      check
        Alcotest.(option string)
        "final value" (Some (string_of_int writes))
        (Proto.Client.lookup rc (p "/seq")))

let () =
  Helpers.run "read_route"
    [
      ( "engine",
        [
          Alcotest.test_case "snapshot held across concurrent update" `Quick
            test_snapshot_across_update;
          Alcotest.test_case "raising reader does not wedge the engine" `Quick
            test_engine_raising_reader;
          Alcotest.test_case "two reader domains pair values with lsns"
            `Quick test_parallel_domain_pairing;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "snapshot/lsn pairing under a racing writer"
            `Quick test_rpc_snapshot_consistency;
        ] );
    ]
