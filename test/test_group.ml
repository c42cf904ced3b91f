(* Group-commit semantics (DESIGN.md §4d).

   Correctness under the group coordinator: concurrent updaters all
   commit with dense LSNs and subscribers see them in stage order; a
   failing precondition fails only its own member; a group-wide log
   failure fails every member with the §4b/§4c taxonomy (Degraded on
   no-space, Poisoned after a failed fsync).  Batching itself is
   timing-dependent, so assertions here are about semantics; the
   deterministic one-fsync-per-group property is asserted through
   [update_batch], which always rides as a single member. *)

module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Fault = Sdb_storage.Fault_fs
module Metrics = Sdb_obs.Metrics
open Helpers

let grouped () = { Smalldb.default_config with group_commit = true }

let mem_grouped ?config () =
  let config = match config with Some c -> c | None -> grouped () in
  mem_db ~config ()

(* ------------------------------------------------------------------ *)
(* Single-threaded: semantics identical to the solo path               *)

let test_solo_semantics () =
  let store, _, db = mem_grouped () in
  let seen = ref [] in
  let _sub = KVDb.subscribe db (fun lsn u -> seen := (lsn, u) :: !seen) in
  KVDb.update db (sequenced_update 0);
  KVDb.update db (sequenced_update 1);
  (match
     KVDb.update_checked db
       ~precondition:(fun _ -> Error "nope")
       (KV.Set ("bad", "x"))
   with
  | Error "nope" -> ()
  | _ -> fail "precondition Error must surface");
  (match
     KVDb.update_checked db
       ~precondition:(fun _ -> failwith "boom")
       (KV.Set ("bad", "x"))
   with
  | exception Failure m when m = "boom" -> ()
  | _ -> fail "raising precondition must propagate");
  check Alcotest.string "usable after raising precondition" "healthy"
    (match KVDb.health db with `Healthy -> "healthy" | _ -> "unhealthy");
  KVDb.update db (sequenced_update 2);
  check Alcotest.int "clean prefix" 3 (sequenced_prefix db);
  check Alcotest.int "lsn dense" 3 (KVDb.stats db).Smalldb.lsn;
  check
    Alcotest.(list int)
    "subscriber lsns in order" [ 0; 1; 2 ]
    (List.rev_map fst !seen);
  (* Durability: reopen replays the same prefix. *)
  KVDb.close db;
  let db2 = KVDb.open_exn (Mem.fs store) in
  check Alcotest.int "recovered prefix" 3 (sequenced_prefix db2);
  KVDb.close db2

let test_batch_is_one_member_one_fsync () =
  let _, _, db = mem_grouped () in
  KVDb.update db (sequenced_update 0);
  let syncs0 = Metrics.counter_value (Metrics.counter "sdb_wal_syncs_total") in
  let flushes0 =
    Metrics.counter_value (Metrics.counter "sdb_wal_group_flushes_total")
  in
  KVDb.update_batch db (List.init 5 (fun i -> sequenced_update (1 + i)));
  let syncs1 = Metrics.counter_value (Metrics.counter "sdb_wal_syncs_total") in
  let flushes1 =
    Metrics.counter_value (Metrics.counter "sdb_wal_group_flushes_total")
  in
  check Alcotest.int "one fsync for the whole batch" 1 (syncs1 - syncs0);
  check Alcotest.int "one group flush" 1 (flushes1 - flushes0);
  check Alcotest.int "all applied" 6 (sequenced_prefix db);
  check Alcotest.int "lsn dense across batch" 6 (KVDb.stats db).Smalldb.lsn;
  KVDb.close db

(* ------------------------------------------------------------------ *)
(* Concurrent updaters                                                 *)

let test_concurrent_dense_lsns_stage_order () =
  let store, _, db = mem_grouped () in
  let threads = 8 and per_thread = 25 in
  let total = threads * per_thread in
  let seen_mutex = Mutex.create () in
  let seen = ref [] in
  let _sub =
    KVDb.subscribe db (fun lsn u ->
        Mutex.lock seen_mutex;
        seen := (lsn, u) :: !seen;
        Mutex.unlock seen_mutex)
  in
  let ths =
    List.init threads (fun tid ->
        Thread.create
          (fun () ->
            for i = 0 to per_thread - 1 do
              KVDb.update db
                (KV.Set (Printf.sprintf "t%d-%03d" tid i, string_of_int i))
            done)
          ())
  in
  List.iter Thread.join ths;
  let seen = List.rev !seen in
  check Alcotest.int "every update notified" total (List.length seen);
  (* Dense LSNs, notified in commit order. *)
  List.iteri
    (fun i (lsn, _) -> check Alcotest.int "notification order is LSN order" i lsn)
    seen;
  check Alcotest.int "lsn total" total (KVDb.stats db).Smalldb.lsn;
  check Alcotest.int "all keys present" total
    (KVDb.query db (fun st -> Hashtbl.length st));
  (* The log is the stage order; subscribers must have seen exactly it. *)
  let logged =
    KVDb.fold_log db ~init:[] ~f:(fun acc lsn u -> (lsn, u) :: acc) |> List.rev
  in
  check Alcotest.int "log holds every update" total (List.length logged);
  List.iter2
    (fun (llsn, lu) (slsn, su) ->
      check Alcotest.int "log vs notify lsn" llsn slsn;
      check Alcotest.bool "log vs notify update" true (lu = su))
    logged seen;
  (* Durability of the whole set. *)
  KVDb.close db;
  let db2 = KVDb.open_exn (Mem.fs store) in
  check Alcotest.int "recovered all" total
    (KVDb.query db2 (fun st -> Hashtbl.length st));
  KVDb.close db2

let test_precondition_fails_only_its_member () =
  (* A refused member fails in prepare, before it could join a group,
     and a checked one holds the commit slot while it verifies.  Slow
     fsyncs keep groups of unconditional updaters forming around the
     checked ones; refusals must fail only their own update, however
     the others grouped. *)
  let store = Mem.create_store ~seed:42 () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  Fault.set_latency ctl ~op:`Sync 0.002;
  let db = KVDb.open_exn ~config:(grouped ()) ffs in
  let threads = 8 and per_thread = 10 in
  let failures = ref 0 and successes = ref 0 in
  let m = Mutex.create () in
  let bump r =
    Mutex.lock m;
    incr r;
    Mutex.unlock m
  in
  let ths =
    List.init threads (fun tid ->
        Thread.create
          (fun () ->
            for i = 0 to per_thread - 1 do
              (* Every odd thread's updates are refused by their own
                 precondition; every fourth thread's are unconditional
                 and group; the rest must be unaffected. *)
              let doomed = tid mod 2 = 1 in
              let u = KV.Set (Printf.sprintf "t%d-%03d" tid i, "v") in
              match
                if tid mod 4 = 0 then Ok (KVDb.update db u)
                else
                  KVDb.update_checked db
                    ~precondition:(fun _ -> if doomed then Error i else Ok ())
                    u
              with
              | Ok () -> bump successes
              | Error j when j = i -> bump failures
              | Error _ -> fail "wrong error payload"
            done)
          ())
  in
  List.iter Thread.join ths;
  let expect_ok = threads / 2 * per_thread in
  check Alcotest.int "refused members" (threads * per_thread - expect_ok)
    !failures;
  check Alcotest.int "committed members" expect_ok !successes;
  check Alcotest.int "lsn counts only successes" expect_ok
    (KVDb.stats db).Smalldb.lsn;
  check Alcotest.bool "healthy" true (KVDb.health db = `Healthy);
  KVDb.close db

(* Two "insert if absent" updaters race on one key per round while a
   background thread keeps groups forming.  A checked update must see
   every update ordered before it, so at most one insert per round may
   commit.  [insert] returns true when its update committed. *)
let checked_insert_race ~rounds ~background insert =
  let stop = Atomic.make false in
  let bg =
    Thread.create
      (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          background !i;
          incr i
        done)
      ()
  in
  let doubles = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join bg)
    (fun () ->
      for round = 0 to rounds - 1 do
        let won = Array.make 2 false in
        let racers =
          List.init 2 (fun i ->
              Thread.create (fun () -> won.(i) <- insert round) ())
        in
        List.iter Thread.join racers;
        if won.(0) && won.(1) then incr doubles
      done);
  !doubles

let slow_sync_store seed =
  let store = Mem.create_store ~seed () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  Fault.set_latency ctl ~op:`Sync 0.001;
  ffs

let test_checked_insert_sees_earlier_commits () =
  let db = KVDb.open_exn ~config:(grouped ()) (slow_sync_store 13) in
  let insert round =
    let key = Printf.sprintf "key-%03d" round in
    KVDb.update_checked db
      ~precondition:(fun st -> if Hashtbl.mem st key then Error () else Ok ())
      (KV.Set (key, "inserted"))
    = Ok ()
  in
  let background i =
    KVDb.update db (KV.Set (Printf.sprintf "bg-%d" (i mod 8), string_of_int i))
  in
  let doubles = checked_insert_race ~rounds:200 ~background insert in
  check Alcotest.int "rounds where both inserts committed" 0 doubles;
  KVDb.close db

(* The same race through the name server's compare-and-set, which the
   RPC [cas] method calls. *)
let test_compare_and_set_race () =
  let module Ns = Sdb_nameserver.Nameserver in
  let module Path = Sdb_nameserver.Name_path in
  let path s = Result.get_ok (Path.of_string s) in
  let ns = Ns.open_exn ~config:(grouped ()) (slow_sync_store 17) in
  let insert round =
    Ns.compare_and_set ns
      (path (Printf.sprintf "/cas/k%d" round))
      ~expected:None (Some "mine")
    = Ok ()
  in
  let background i =
    Ns.set_value ns (path (Printf.sprintf "/bg/k%d" (i mod 8))) (Some "v")
  in
  let doubles = checked_insert_race ~rounds:20 ~background insert in
  check Alcotest.int "rounds where both CAS inserts committed" 0 doubles;
  Ns.close ns

(* Every member of a group returns together and checks the
   checkpoint policy; only the first may act on it. *)
let test_group_checkpoints_once () =
  let store = Mem.create_store ~seed:23 () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  Fault.set_latency ctl ~op:`Sync 0.002;
  let config = { (grouped ()) with policy = Smalldb.Every_n_updates 1 } in
  let db = KVDb.open_exn ~config ffs in
  let flushes () =
    Metrics.counter_value (Metrics.counter "sdb_wal_group_flushes_total")
  in
  let flushes0 = flushes () in
  let ths =
    List.init 8 (fun tid ->
        Thread.create
          (fun () -> KVDb.update db (KV.Set (Printf.sprintf "t%d" tid, "v")))
          ())
  in
  List.iter Thread.join ths;
  let s = KVDb.stats db in
  check Alcotest.int "all committed" 8 s.Smalldb.lsn;
  check Alcotest.bool "at most one checkpoint per group" true
    (s.Smalldb.checkpoints_written <= flushes () - flushes0);
  KVDb.close db

(* ------------------------------------------------------------------ *)
(* Group-wide failures                                                 *)

let test_fsync_fault_poisons_and_wakes_all () =
  let store = Mem.create_store ~seed:7 () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  (* Slow writes pile updaters up behind the first group. *)
  Fault.set_latency ctl ~op:`Write 0.002;
  let db = KVDb.open_exn ~config:(grouped ()) ffs in
  (* From here, the very next fsync — the first group's shared commit
     point — fails. *)
  Fault.fail_nth ctl ~op:`Sync ~n:1 ();
  let threads = 8 in
  let outcomes = Array.make threads `Unset in
  let ths =
    List.init threads (fun tid ->
        Thread.create
          (fun () ->
            outcomes.(tid) <-
              (match KVDb.update db (KV.Set (Printf.sprintf "t%d" tid, "v")) with
              | () -> `Committed
              | exception Fs.Io_error _ -> `Io_error
              | exception Smalldb.Poisoned -> `Poisoned))
          ())
  in
  List.iter Thread.join ths;
  let count o = Array.to_list outcomes |> List.filter (( = ) o) |> List.length in
  (* Exactly one thread performed the failing fsync (the group leader:
     it re-raises the raw failure, like a solo updater would); every
     other member — parked in the same group, leading a later group, or
     arriving after the fact — observes Poisoned. *)
  check Alcotest.int "no commits" 0 (count `Committed);
  check Alcotest.int "one leader saw the I/O error" 1 (count `Io_error);
  check Alcotest.int "everyone else poisoned" (threads - 1) (count `Poisoned);
  check Alcotest.bool "engine poisoned" true (KVDb.health db = `Poisoned);
  (match KVDb.update db (KV.Set ("after", "x")) with
  | exception Smalldb.Poisoned -> ()
  | _ -> fail "poisoned engine must refuse updates");
  (* Reopen on the raw store recovers a clean (possibly empty) state. *)
  Fault.clear ctl;
  (try KVDb.close db with _ -> ());
  let db2 = KVDb.open_exn (Mem.fs store) in
  KVDb.query db2 (fun st ->
      Hashtbl.iter (fun _ v -> check Alcotest.string "value intact" "v" v) st);
  KVDb.update db2 (KV.Set ("after", "y"));
  KVDb.close db2

let test_no_space_degrades_and_fails_all_members () =
  let store = Mem.create_store ~seed:9 () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  Fault.set_latency ctl ~op:`Write 0.002;
  let db = KVDb.open_exn ~config:(grouped ()) ffs in
  (* Cap the budget so the next group append overflows it. *)
  Fault.set_capacity ctl (Some (Mem.total_bytes store + 8));
  let threads = 6 in
  let degraded = ref 0 and committed = ref 0 in
  let m = Mutex.create () in
  let ths =
    List.init threads (fun tid ->
        Thread.create
          (fun () ->
            match KVDb.update db (KV.Set (Printf.sprintf "t%d" tid, "v")) with
            | () ->
              Mutex.lock m;
              incr committed;
              Mutex.unlock m
            | exception Smalldb.Degraded _ ->
              Mutex.lock m;
              incr degraded;
              Mutex.unlock m)
          ())
  in
  List.iter Thread.join ths;
  check Alcotest.int "no member committed" 0 !committed;
  check Alcotest.int "every member degraded" threads !degraded;
  (match KVDb.health db with
  | `Degraded _ -> ()
  | _ -> fail "engine must be degraded (read-only), not poisoned");
  (* Nothing reached the log: memory still equals disk. *)
  check Alcotest.int "state untouched" 0
    (KVDb.query db (fun st -> Hashtbl.length st));
  (* Space turns up; the engine exits degraded mode by itself. *)
  Fault.set_capacity ctl None;
  Thread.delay 0.03;
  KVDb.update db (KV.Set ("recovered", "v"));
  check Alcotest.bool "healthy again" true (KVDb.health db = `Healthy);
  KVDb.close db

let () =
  Helpers.run "group-commit"
    [
      ( "solo",
        [
          Alcotest.test_case "semantics match the solo path" `Quick
            test_solo_semantics;
          Alcotest.test_case "batch = one member, one fsync" `Quick
            test_batch_is_one_member_one_fsync;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "dense LSNs, notify in stage order" `Quick
            test_concurrent_dense_lsns_stage_order;
          Alcotest.test_case "precondition fails only its member" `Quick
            test_precondition_fails_only_its_member;
          Alcotest.test_case "checked insert sees earlier commits" `Quick
            test_checked_insert_sees_earlier_commits;
          Alcotest.test_case "compare-and-set insert race" `Quick
            test_compare_and_set_race;
          Alcotest.test_case "a group checkpoints once" `Quick
            test_group_checkpoints_once;
        ] );
      ( "failures",
        [
          Alcotest.test_case "failed fsync poisons, wakes all parked" `Quick
            test_fsync_fault_poisons_and_wakes_all;
          Alcotest.test_case "no-space degrades, fails all cleanly" `Quick
            test_no_space_degrades_and_fails_all_members;
        ] );
    ]
