(* Replication (§4): three name-server replicas, eager update
   propagation over RPC, a partition with later anti-entropy, and
   hard-error recovery by restoring a damaged replica's store from a
   live peer.  Exits non-zero when the restore fails or the restored
   replica's digest or LSN differs from its source's.

   Run with:  dune exec examples/replication_demo.exe *)

module Mem = Sdb_storage.Mem_fs
module Ns = Sdb_nameserver.Nameserver
module Path = Sdb_nameserver.Name_path
module Rpc = Sdb_rpc.Rpc
module Proto = Sdb_rpc.Ns_protocol
module Replica = Sdb_replica.Replica
module Store = Sdb_checkpoint.Checkpoint_store

let p s = match Path.of_string s with Ok v -> v | Error e -> failwith e

type cell = {
  name : string;
  store : Mem.store;
  ns : Ns.t;
  replica : Replica.t;
  mutable links : (Rpc.Transport.t * Thread.t) list;
}

let make name seed =
  let store = Mem.create_store ~seed () in
  let ns = Ns.open_exn (Mem.fs store) in
  { name; store; ns; replica = Replica.create ~id:name ns; links = [] }

let connect a b =
  let client_t, server_t = Rpc.Inproc.pair () in
  let thread = Thread.create (fun () -> Proto.serve b.ns server_t) () in
  b.links <- (server_t, thread) :: b.links;
  Replica.add_peer a.replica ~id:b.name (Proto.Client.create client_t)

let cut cell =
  List.iter (fun (t, th) -> t.Rpc.Transport.close (); Thread.join th) cell.links;
  cell.links <- []

let show_peers who r =
  List.iter
    (fun pr ->
      Printf.printf "  %s -> %s: %s, backlog %d\n" who pr.Replica.peer_id
        (if pr.Replica.reachable then "reachable" else "UNREACHABLE")
        pr.Replica.backlog)
    (Replica.peers r)

let () =
  let a = make "alpha" 1 and b = make "beta" 2 and c = make "gamma" 3 in
  connect a b;
  connect a c;

  print_endline "== eager propagation ==";
  Replica.set_value a.replica (p "/svc/time") (Some "alpha:37");
  Replica.set_value a.replica (p "/svc/mail") (Some "beta:25");
  (* Delivery is asynchronous (commits never wait on the network);
     flush drains the outboxes before we inspect the peers. *)
  ignore (Replica.flush a.replica);
  Printf.printf "beta sees /svc/time  = %s\n"
    (Option.value (Ns.lookup b.ns (p "/svc/time")) ~default:"<missing>");
  Printf.printf "gamma sees /svc/mail = %s\n"
    (Option.value (Ns.lookup c.ns (p "/svc/mail")) ~default:"<missing>");
  Printf.printf "digests: alpha=beta %b, alpha=gamma %b\n"
    (Ns.digest a.ns = Ns.digest b.ns)
    (Ns.digest a.ns = Ns.digest c.ns);

  print_endline "== partition: beta goes down ==";
  cut b;
  Replica.set_value a.replica (p "/svc/news") (Some "gamma:119");
  Replica.set_value a.replica (p "/svc/ftp") (Some "alpha:21");
  (* flush returns false: beta's sender hit the dead link and parked
     the peer for anti-entropy; gamma still drained. *)
  Printf.printf "all peers drained: %b\n" (Replica.flush a.replica);
  show_peers "alpha" a.replica;
  Printf.printf "beta missed /svc/news: %b\n" (Ns.lookup b.ns (p "/svc/news") = None);

  print_endline "== heal: reconnect and anti-entropy ==";
  let client_t, server_t = Rpc.Inproc.pair () in
  let thread = Thread.create (fun () -> Proto.serve b.ns server_t) () in
  b.links <- (server_t, thread) :: b.links;
  Replica.reconnect a.replica ~id:"beta" (Proto.Client.create client_t);
  Replica.anti_entropy a.replica;
  Printf.printf "beta now has /svc/news = %s\n"
    (Option.value (Ns.lookup b.ns (p "/svc/news")) ~default:"<missing>");
  show_peers "alpha" a.replica;

  print_endline "== hard error on gamma: restore from alpha (§4) ==";
  (* Destroy gamma's current checkpoint on disk. *)
  Ns.checkpoint c.ns;
  let gen = (Ns.stats c.ns).Smalldb.generation in
  Ns.close c.ns;
  Mem.damage c.store ~file:(Store.checkpoint_file gen) ~offset:0 ~len:32;
  (match Ns.open_ (Mem.fs c.store) with
  | Error e -> Printf.printf "gamma cannot restart locally: %s\n" e
  | Ok _ -> print_endline "unexpected: local restart succeeded");
  (* Restore gamma's own store from alpha's checkpoint image. *)
  let client_t2, server_t2 = Rpc.Inproc.pair () in
  let thread2 = Thread.create (fun () -> Proto.serve a.ns server_t2) () in
  a.links <- (server_t2, thread2) :: a.links;
  let restored =
    match Replica.repair_from_peer (Proto.Client.create client_t2) (Mem.fs c.store) with
    | Error e ->
      Printf.printf "restore failed: %s\n" e;
      false
    | Ok gamma2 ->
      let lsn ns = (Ns.stats ns).Smalldb.lsn in
      let same_digest = Ns.digest gamma2 = Ns.digest a.ns in
      Printf.printf "gamma restored from alpha: /svc/ftp = %s, lsn %d (alpha %d), digest match %b\n"
        (Option.value (Ns.lookup gamma2 (p "/svc/ftp")) ~default:"<missing>")
        (lsn gamma2) (lsn a.ns) same_digest;
      let ok = same_digest && lsn gamma2 = lsn a.ns in
      Ns.close gamma2;
      ok
  in

  Replica.shutdown a.replica;
  Replica.shutdown b.replica;
  cut a;
  cut b;
  print_endline "done";
  if not restored then exit 1
