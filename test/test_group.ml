(* Group-commit semantics (DESIGN.md §4d).

   Correctness under the group coordinator: concurrent updaters all
   commit with dense LSNs and subscribers see them in stage order; a
   failing precondition fails only its own member; a raising apply
   fails its whole group before the commit point; a group-wide log
   failure fails every member with the §4b/§4c taxonomy (Degraded on
   no-space, Poisoned after a failed fsync).  Batching itself is
   timing-dependent, so assertions here are about semantics; the
   deterministic one-fsync-per-group property is asserted through
   [update_batch], which always rides as a single member. *)

module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Fault = Sdb_storage.Fault_fs
module Metrics = Sdb_obs.Metrics
module Trace = Sdb_obs.Trace
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
    (KVDb.query db Smap.cardinal);
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
    (KVDb.query db2 Smap.cardinal);
  KVDb.close db2

let test_precondition_fails_only_its_member () =
  (* A refused member is left out by its leader's fold, before
     anything is staged.  Slow fsyncs keep groups forming, checked and
     unconditional updaters together; refusals must fail only their own
     update, however the others grouped. *)
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
      ~precondition:(fun st -> if Smap.mem key st then Error () else Ok ())
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
(* The linger: callers expected back within one log write and fsync    *)

let wal_syncs () = Metrics.counter_value (Metrics.counter "sdb_wal_syncs_total")

let lingers () =
  (Metrics.histogram_snapshot (Metrics.histogram "sdb_group_linger_seconds"))
    .Sdb_util.Histogram.s_count

(* Timing checks get a few attempts: the suite's other processes share
   the cores, and a thread the kernel leaves waiting can cost one
   attempt its figure.  Only the last failure is reported. *)
let within_attempts n f =
  let rec go i =
    match f () with
    | Ok () -> ()
    | Error msg when i < n ->
      Printf.printf "attempt %d: %s\n" i msg;
      go (i + 1)
    | Error msg -> Alcotest.fail msg
  in
  go 1

(* [updates] commits, [pause] apart, on a thread of its own; returns the
   latency of each. *)
let paced db ~tag ~updates ~pause =
  let lat = Array.make updates 0.0 in
  let th =
    Thread.create
      (fun () ->
        for i = 0 to updates - 1 do
          let t0 = Unix.gettimeofday () in
          KVDb.update db (KV.Set (Printf.sprintf "%s-%d" tag i, "v"));
          lat.(i) <- Unix.gettimeofday () -. t0;
          if pause > 0.0 then Thread.delay pause
        done)
      ()
  in
  (th, lat)

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Two closed-loop callers that pause 200 us between updates are never
   both queued when a leader decides; lingering for the one about to
   come back lets them share most fsyncs (one each without it). *)
let test_pausing_callers_share_fsyncs () =
  within_attempts 3 @@ fun () ->
  let db = KVDb.open_exn ~config:(grouped ()) (slow_sync_store 31) in
  let updates = 150 in
  let syncs0 = wal_syncs () in
  let runs = List.map (fun tag -> paced db ~tag ~updates ~pause:0.0002) [ "a"; "b" ] in
  List.iter (fun (th, _) -> Thread.join th) runs;
  let per_update = float_of_int (wal_syncs () - syncs0) /. float_of_int (2 * updates) in
  check Alcotest.int "all committed" (2 * updates) (KVDb.stats db).Smalldb.lsn;
  KVDb.close db;
  Printf.printf "fsyncs per update: %.3f\n" per_update;
  if per_update <= 0.6 then Ok ()
  else Error (Printf.sprintf "%.3f fsyncs per update (want <= 0.6)" per_update)

(* Checked updates join groups: four checked updaters in tight loops
   share most fsyncs (one each when a checked update committed alone). *)
let test_checked_updaters_share_fsyncs () =
  within_attempts 3 @@ fun () ->
  let db = KVDb.open_exn ~config:(grouped ()) (slow_sync_store 43) in
  let threads = 4 and per_thread = 50 in
  let refused = Atomic.make 0 in
  let syncs0 = wal_syncs () in
  let ths =
    List.init threads (fun tid ->
        Thread.create
          (fun () ->
            for i = 0 to per_thread - 1 do
              let key = Printf.sprintf "t%d-%03d" tid i in
              match
                KVDb.update_checked db
                  ~precondition:(fun st -> if Smap.mem key st then Error () else Ok ())
                  (KV.Set (key, "v"))
              with
              | Ok () -> ()
              | Error () -> Atomic.incr refused
            done)
          ())
  in
  List.iter Thread.join ths;
  let updates = threads * per_thread in
  let per_update = float_of_int (wal_syncs () - syncs0) /. float_of_int updates in
  check Alcotest.int "none refused" 0 (Atomic.get refused);
  check Alcotest.int "all committed" updates (KVDb.stats db).Smalldb.lsn;
  KVDb.close db;
  Printf.printf "fsyncs per checked update: %.3f\n" per_update;
  if per_update <= 0.6 then Ok ()
  else Error (Printf.sprintf "%.3f fsyncs per checked update (want <= 0.6)" per_update)

let test_lone_caller_never_lingers () =
  let db = KVDb.open_exn ~config:(grouped ()) (slow_sync_store 37) in
  let updates = 60 in
  let syncs0 = wal_syncs () and lingers0 = lingers () in
  let th, _ = paced db ~tag:"solo" ~updates ~pause:0.0002 in
  Thread.join th;
  check Alcotest.int "no linger" lingers0 (lingers ());
  check Alcotest.int "one fsync per update" updates (wal_syncs () - syncs0);
  KVDb.close db

(* A caller that pauses 5 ms, longer than the fsync, is never awaited:
   the busy caller's updates take as long beside it as alone.  Solo and
   paired rounds alternate, and each paired round is compared with the
   solo round just before it, so a change in the machine's load falls
   on both sides of a ratio. *)
let test_slow_caller_never_awaited () =
  within_attempts 3 @@ fun () ->
  let db = KVDb.open_exn ~config:(grouped ()) (slow_sync_store 41) in
  let updates = 40 in
  let busy tag =
    let th, lat = paced db ~tag ~updates ~pause:0.0 in
    Thread.join th;
    mean lat
  in
  let ratios =
    Array.init 5 (fun round ->
        let solo = busy (Printf.sprintf "solo%d" round) in
        let stop = Atomic.make false in
        let slow =
          Thread.create
            (fun () ->
              let i = ref 0 in
              while not (Atomic.get stop) do
                KVDb.update db (KV.Set (Printf.sprintf "slow%d-%d" round !i, "v"));
                incr i;
                Thread.delay 0.005
              done)
            ()
        in
        Thread.delay 0.02;
        let paired = busy (Printf.sprintf "busy%d" round) in
        Atomic.set stop true;
        Thread.join slow;
        paired /. solo)
  in
  KVDb.close db;
  let r = median ratios in
  Printf.printf "busy caller's latency beside the slow one / alone: %.3f (median of 5 rounds)\n" r;
  if r <= 1.1 then Ok ()
  else Error (Printf.sprintf "busy caller's mean latency %.0f%% above its solo latency" ((r -. 1.) *. 100.))

(* A leader awaits a caller that paused briefly, and that caller never
   comes back: the leader commits alone once a log time has passed since
   the caller's return (the exact bound is the schedule explorer's to
   check; here, only that the wait ends). *)
let test_awaited_caller_never_returns () =
  let attempt seed =
    let db = KVDb.open_exn ~config:(grouped ()) (slow_sync_store seed) in
    let ring = Trace.Ring.create ~capacity:256 in
    Trace.set_sink (Some (Trace.Ring.sink ring));
    Fun.protect ~finally:(fun () ->
        Trace.set_sink None;
        KVDb.close db)
    @@ fun () ->
    (* This thread is the caller that pauses, then never comes back. *)
    for i = 0 to 3 do
      KVDb.update db (KV.Set ("gone", string_of_int i));
      Thread.delay 0.0002
    done;
    Trace.Ring.clear ring;
    let leader = Thread.create (fun () -> KVDb.update db (KV.Set ("leader", "v"))) () in
    Thread.join leader;
    match List.filter (fun s -> s.Trace.name = "update.linger") (Trace.Ring.contents ring) with
    | [ s ] ->
      check Alcotest.(option string) "awaited" (Some "1") (List.assoc_opt "waited_for" s.Trace.attrs);
      check Alcotest.(option string) "never came back" (Some "0") (List.assoc_opt "joined" s.Trace.attrs);
      Ok ()
    | _ -> Error "the leader did not await the caller"
  in
  let seed = ref 45 in
  within_attempts 8 (fun () ->
      incr seed;
      attempt !seed)

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
      Smap.iter (fun _ v -> check Alcotest.string "value intact" "v" v) st);
  KVDb.update db2 (KV.Set ("after", "y"));
  KVDb.close db2

(* Members pickled so far: a member joins its group under the Update
   hold it pickled under. *)
let pickles () =
  (Metrics.histogram_snapshot
     (Metrics.histogram "sdb_update_phase_seconds" ~labels:[ ("phase", "pickle") ]))
    .Sdb_util.Histogram.s_count

(* The test KV, except that [apply] rejects the key "boom". *)
module Picky = struct
  include KV

  let name = "picky-kv"

  let apply st = function
    | KV.Set ("boom", _) -> failwith "apply exploded"
    | u -> KV.apply st u
end

module PickyDb = Smalldb.Make (Picky)

let test_raising_apply_fails_its_group () =
  let store = Mem.create_store ~seed:11 () in
  let fs = Mem.fs store in
  let db = PickyDb.open_exn ~config:(grouped ()) fs in
  (* Groups notify holding the commit slot: the first commit's
     subscriber keeps it until the next group has formed behind it. *)
  let gate = Mutex.create () and moved = Condition.create () in
  let holding = ref false and release = ref false and first = ref true in
  let _sub =
    PickyDb.subscribe db (fun _ _ ->
        if !first then begin
          first := false;
          Mutex.protect gate (fun () ->
              holding := true;
              Condition.broadcast moved;
              while not !release do
                Condition.wait moved gate
              done)
        end)
  in
  let t0 = Thread.create (fun () -> PickyDb.update db (KV.Set ("first", "v"))) () in
  await "the first commit's notification" (fun () ->
      Mutex.protect gate (fun () -> !holding));
  let pickles0 = pickles () in
  let before = Fs.Counters.copy fs.Fs.counters in
  let keys = [ "a"; "boom"; "b"; "c" ] in
  let outcomes = Array.make (List.length keys) "unset" in
  let ths =
    List.mapi
      (fun i k ->
        Thread.create
          (fun () ->
            outcomes.(i) <-
              (match PickyDb.update db (KV.Set (k, "v")) with
              | () -> "committed"
              | exception Failure m -> m))
          ())
      keys
  in
  (* A member joins under the Update hold it pickled under, and the
     leader seals under Update: once every member has pickled, all of
     them are in the group the leader seals. *)
  await "every member pickled" (fun () -> pickles () - pickles0 = List.length keys);
  Mutex.protect gate (fun () ->
      release := true;
      Condition.broadcast moved);
  List.iter Thread.join (t0 :: ths);
  Array.iter (check Alcotest.string "every member fails with the app's exception" "apply exploded")
    outcomes;
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "no fsync" 0 d.Fs.Counters.syncs;
  check Alcotest.int "no write" 0 d.Fs.Counters.data_writes;
  check Alcotest.bool "healthy" true (PickyDb.health db = `Healthy);
  check Alcotest.int "only the first commit" 1 (PickyDb.stats db).Smalldb.lsn;
  PickyDb.update db (KV.Set ("after", "v"));
  check Alcotest.int "the next group commits" 2 (PickyDb.stats db).Smalldb.lsn;
  check Alcotest.(list string) "state" [ "after"; "first" ]
    (PickyDb.query db (fun st -> List.map fst (Smap.bindings st)));
  PickyDb.close db

(* One group holds a refused member, a member whose precondition
   raises and two unconditional ones, held open as above: the two commit
   with dense LSNs and one fsync, the refused member returns its
   [Error], the raising one its exception, and the log holds neither. *)
let test_mixed_group_fails_only_its_members () =
  let store = Mem.create_store ~seed:19 () in
  let fs = Mem.fs store in
  let db = KVDb.open_exn ~config:(grouped ()) fs in
  let gate = Mutex.create () and moved = Condition.create () in
  let holding = ref false and release = ref false and seen = ref [] in
  let _sub =
    KVDb.subscribe db (fun lsn u ->
        Mutex.protect gate (fun () ->
            seen := (u, lsn) :: !seen;
            if lsn = 0 then begin
              holding := true;
              Condition.broadcast moved;
              while not !release do
                Condition.wait moved gate
              done
            end))
  in
  let t0 = Thread.create (fun () -> KVDb.update db (KV.Set ("first", "v"))) () in
  await "the first commit's notification" (fun () ->
      Mutex.protect gate (fun () -> !holding));
  let pickles0 = pickles () in
  let before = Fs.Counters.copy fs.Fs.counters in
  let checked key precondition () =
    match KVDb.update_checked db ~precondition (KV.Set (key, "v")) with
    | Ok () -> "committed"
    | Error e -> e
    | exception Failure m -> m
  in
  let unconditional key () =
    KVDb.update db (KV.Set (key, "v"));
    "committed"
  in
  let members =
    [
      checked "refused" (fun _ -> Error "refused");
      checked "raising" (fun _ -> failwith "precondition exploded");
      unconditional "a";
      unconditional "b";
    ]
  in
  let outcomes = Array.make (List.length members) "unset" in
  let ths =
    List.mapi (fun i f -> Thread.create (fun () -> outcomes.(i) <- f ()) ()) members
  in
  await "every member pickled" (fun () -> pickles () - pickles0 = List.length members);
  Mutex.protect gate (fun () ->
      release := true;
      Condition.broadcast moved);
  List.iter Thread.join (t0 :: ths);
  check
    Alcotest.(list string)
    "outcomes"
    [ "refused"; "precondition exploded"; "committed"; "committed" ]
    (Array.to_list outcomes);
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "one fsync for the group" 1 d.Fs.Counters.syncs;
  let lsn key = List.assoc (KV.Set (key, "v")) !seen in
  check Alcotest.(list int) "dense LSNs" [ 1; 2 ] (List.sort compare [ lsn "a"; lsn "b" ]);
  check Alcotest.bool "healthy" true (KVDb.health db = `Healthy);
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "recovered LSN" 3 (KVDb.stats db2).Smalldb.lsn;
  check Alcotest.(list string) "recovered state" [ "a"; "b"; "first" ]
    (KVDb.query db2 (fun st -> List.map fst (Smap.bindings st)));
  KVDb.close db2

(* Two checked updaters, each inside its own request, share one group
   held open as above.  The leader's fold verifies both, on its own
   thread; each request must still find its own verify span. *)
let test_verify_span_names_its_request () =
  let db = KVDb.open_exn ~config:(grouped ()) (Mem.fs (Mem.create_store ~seed:29 ())) in
  let ring = Trace.Ring.create ~capacity:256 in
  Trace.set_sink (Some (Trace.Ring.sink ring));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      let gate = Mutex.create () and moved = Condition.create () in
      let holding = ref false and release = ref false in
      let _sub =
        KVDb.subscribe db (fun lsn _ ->
            if lsn = 0 then
              Mutex.protect gate (fun () ->
                  holding := true;
                  Condition.broadcast moved;
                  while not !release do
                    Condition.wait moved gate
                  done))
      in
      let t0 = Thread.create (fun () -> KVDb.update db (KV.Set ("first", "v"))) () in
      await "the first commit's notification" (fun () ->
          Mutex.protect gate (fun () -> !holding));
      let pickles0 = pickles () in
      let requests = [ "req-a"; "req-b" ] in
      let ths =
        List.map
          (fun id ->
            Thread.create
              (fun () ->
                Trace.with_request id (fun () ->
                    ignore
                      (KVDb.update_checked db ~precondition:(fun _ -> Ok ())
                         (KV.Set (id, "v"))
                        : (unit, unit) result)))
              ())
          requests
      in
      await "both members pickled" (fun () -> pickles () - pickles0 = 2);
      Mutex.protect gate (fun () ->
          release := true;
          Condition.broadcast moved);
      List.iter Thread.join (t0 :: ths);
      let verify_reqs =
        List.filter_map
          (fun (sp : Trace.span) ->
            if sp.name = "update.verify" then List.assoc_opt "req" sp.attrs else None)
          (Trace.Ring.contents ring)
      in
      check Alcotest.(list string) "each verify span carries its member's request"
        requests (List.sort compare verify_reqs));
  KVDb.close db

(* A refusal is only as good as what refused it.  In a group held open
   as above, an unconditional insert of "k" stages ahead of a checked
   insert of "k" if absent, which the fold refuses; then the group's
   log write runs out of space.  The insert never committed, so the
   checked member must fail with the group, not return "present". *)
let test_refusal_fails_with_its_group () =
  let store = Mem.create_store ~seed:23 () in
  let db = KVDb.open_exn ~config:(grouped ()) (Mem.fs store) in
  let gate = Mutex.create () and moved = Condition.create () in
  let holding = ref false and release = ref false in
  let _sub =
    KVDb.subscribe db (fun lsn _ ->
        if lsn = 0 then
          Mutex.protect gate (fun () ->
              holding := true;
              Condition.broadcast moved;
              while not !release do
                Condition.wait moved gate
              done))
  in
  let t0 = Thread.create (fun () -> KVDb.update db (KV.Set ("first", "v"))) () in
  await "the first commit's notification" (fun () ->
      Mutex.protect gate (fun () -> !holding));
  let outcome f () = try f () with Smalldb.Degraded _ -> "degraded" in
  let pickles0 = pickles () in
  let insert =
    Thread.create
      (outcome (fun () ->
           KVDb.update db (KV.Set ("k", "v"));
           "committed"))
      ()
  in
  await "the insert pickled" (fun () -> pickles () - pickles0 = 1);
  let absent st = if Smap.mem "k" st then Error "present" else Ok () in
  let checked () =
    match KVDb.update_checked db ~precondition:absent (KV.Set ("k", "w")) with
    | Ok () -> "committed"
    | Error e -> e
  in
  let result = ref "unset" in
  let check_thread = Thread.create (fun () -> result := outcome checked ()) () in
  await "the checked insert pickled" (fun () -> pickles () - pickles0 = 2);
  Mem.set_capacity store (Some (Mem.total_bytes store + 8));
  Mutex.protect gate (fun () ->
      release := true;
      Condition.broadcast moved);
  List.iter Thread.join [ t0; insert; check_thread ];
  check Alcotest.string "the checked member fails with its group" "degraded" !result;
  check Alcotest.bool "k absent" false (KVDb.query db (Smap.mem "k"));
  Mem.set_capacity store None;
  Thread.delay 0.03;
  check Alcotest.string "retried once space turns up" "committed" (checked ());
  KVDb.close db

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
    (KVDb.query db Smap.cardinal);
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
      ( "linger",
        [
          Alcotest.test_case "pausing callers share fsyncs" `Quick
            test_pausing_callers_share_fsyncs;
          Alcotest.test_case "checked updaters share fsyncs" `Quick
            test_checked_updaters_share_fsyncs;
          Alcotest.test_case "a lone caller never lingers" `Quick
            test_lone_caller_never_lingers;
          Alcotest.test_case "a slow caller is never awaited" `Quick
            test_slow_caller_never_awaited;
          Alcotest.test_case "awaited caller never returns" `Quick
            test_awaited_caller_never_returns;
        ] );
      ( "failures",
        [
          Alcotest.test_case "raising apply fails its group, commits none" `Quick
            test_raising_apply_fails_its_group;
          Alcotest.test_case "a verify span names its own request" `Quick
            test_verify_span_names_its_request;
          Alcotest.test_case "mixed group fails only its members" `Quick
            test_mixed_group_fails_only_its_members;
          Alcotest.test_case "a refusal fails with its group" `Quick
            test_refusal_fails_with_its_group;
          Alcotest.test_case "failed fsync poisons, wakes all parked" `Quick
            test_fsync_fault_poisons_and_wakes_all;
          Alcotest.test_case "no-space degrades, fails all cleanly" `Quick
            test_no_space_degrades_and_fails_all_members;
        ] );
    ]
