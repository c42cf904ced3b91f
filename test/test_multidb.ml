module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Fault = Sdb_storage.Fault_fs
module Multidb = Sdb_multidb.Multidb
open Helpers

let check = Alcotest.check

module MDb = Multidb.Make (KV)

let mem_mdb ?config ?(partitions = 4) ?(seed = 61) () =
  let store = Mem.create_store ~seed () in
  let fs = Mem.fs store in
  (store, fs, MDb.open_exn ?config ~partitions fs)

let part = MDb.partition
let get db ~partition k = KVDb.query (part db partition) (Smap.find_opt k)
let set db ~partition k v = KVDb.update (part db partition) (KV.Set (k, v))

let fill db ~partitions ~n =
  for i = 0 to n - 1 do
    let partition = i mod partitions in
    set db ~partition (Printf.sprintf "p%d-k%04d" partition i) (string_of_int i)
  done

let partition_sizes db ~partitions =
  List.init partitions (fun k -> KVDb.query (part db k) Smap.cardinal)

(* Store-wide totals summed over the partitions' engines. *)
let total f db =
  List.fold_left ( + ) 0
    (List.init (MDb.partition_count db) (fun k -> f (KVDb.stats (part db k))))

let lsn = total (fun s -> s.Smalldb.lsn)
let replayed = total (fun s -> s.Smalldb.recovery.Smalldb.replayed)
let generations db =
  List.init (MDb.partition_count db) (fun k -> (KVDb.stats (part db k)).Smalldb.generation)

(* ------------------------------------------------------------------ *)

let test_basic_isolation () =
  let _, _, db = mem_mdb () in
  set db ~partition:0 "shared-key" "zero";
  set db ~partition:1 "shared-key" "one";
  check Alcotest.(option string) "p0" (Some "zero") (get db ~partition:0 "shared-key");
  check Alcotest.(option string) "p1" (Some "one") (get db ~partition:1 "shared-key");
  check Alcotest.(option string) "p2 empty" None (get db ~partition:2 "shared-key");
  check Alcotest.int "lsn" 2 (lsn db);
  check Alcotest.int "partitions" 4 (MDb.partition_count db);
  Alcotest.check_raises "bad partition"
    (Invalid_argument "Multidb: partition 9 out of range") (fun () ->
      ignore (get db ~partition:9 "x"))

let test_one_write_per_update () =
  let _, fs, db = mem_mdb () in
  set db ~partition:0 "warm" "up";
  let before = Fs.Counters.copy fs.Fs.counters in
  set db ~partition:2 "k" "v";
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "one write" 1 d.Fs.Counters.data_writes;
  check Alcotest.int "one sync" 1 d.Fs.Counters.syncs

let test_durability_no_checkpoints () =
  let _, fs, db = mem_mdb () in
  fill db ~partitions:4 ~n:40;
  MDb.close db;
  let db2 = MDb.open_exn ~partitions:4 fs in
  check Alcotest.(list int) "all partitions replayed" [ 10; 10; 10; 10 ]
    (partition_sizes db2 ~partitions:4);
  check Alcotest.int "lsn recovered" 40 (lsn db2);
  check Alcotest.int "replayed" 40 (replayed db2);
  (* LSNs continue. *)
  set db2 ~partition:0 "after" "restart";
  check Alcotest.int "lsn" 41 (lsn db2)

let test_partition_checkpoint_reduces_replay () =
  let _, fs, db = mem_mdb () in
  fill db ~partitions:4 ~n:40;
  KVDb.checkpoint (part db 1);
  MDb.close db;
  let db2 = MDb.open_exn ~partitions:4 fs in
  (* Partition 1's 10 updates were absorbed; the rest replay. *)
  check Alcotest.int "replayed only others" 30 (replayed db2);
  check Alcotest.(list int) "state complete" [ 10; 10; 10; 10 ]
    (partition_sizes db2 ~partitions:4)

let test_round_robin () =
  let _, _, db = mem_mdb () in
  fill db ~partitions:4 ~n:8;
  MDb.checkpoint_next db;
  MDb.checkpoint_next db;
  check Alcotest.(list int) "first two checkpointed" [ 1; 1; 0; 0 ] (generations db)

let log_entries db =
  List.init (MDb.partition_count db) (fun k ->
      (KVDb.stats (part db k)).Smalldb.log_entries)

let test_log_switch_and_flush () =
  let _, fs, db = mem_mdb () in
  fill db ~partitions:4 ~n:60;
  (* Checkpoint one partition: only its log is flushed; the others
     keep the entries their own checkpoints have not absorbed. *)
  KVDb.checkpoint (part db 0);
  check Alcotest.(list int) "one log flushed" [ 0; 15; 15; 15 ] (log_entries db);
  MDb.checkpoint_all db;
  check Alcotest.(list int) "every log flushed" [ 0; 0; 0; 0 ] (log_entries db);
  (* Superseded logs are actually gone from the disk. *)
  let logs k =
    List.filter
      (String.starts_with ~prefix:"logfile")
      ((Fs.prefixed fs (Printf.sprintf "p%d." k)).Fs.list_files ())
  in
  check
    Alcotest.(list (list string))
    "one log file per partition"
    [ [ "logfile2" ]; [ "logfile1" ]; [ "logfile1" ]; [ "logfile1" ] ]
    (List.init 4 logs);
  (* And everything still reopens. *)
  MDb.close db;
  let db2 = MDb.open_exn ~partitions:4 fs in
  check Alcotest.(list int) "state survives flush" [ 15; 15; 15; 15 ]
    (partition_sizes db2 ~partitions:4);
  check Alcotest.int "nothing to replay" 0 (replayed db2)

let test_recovery_across_multiple_logs () =
  let _, fs, db = mem_mdb () in
  fill db ~partitions:4 ~n:30;
  KVDb.checkpoint (part db 0);
  fill db ~partitions:4 ~n:30;
  KVDb.checkpoint (part db 1);
  fill db ~partitions:4 ~n:20;
  let expect = partition_sizes db ~partitions:4 in
  MDb.close db;
  let db2 = MDb.open_exn ~partitions:4 fs in
  check Alcotest.(list int) "multi-log recovery" expect (partition_sizes db2 ~partitions:4)

let test_auto_round_robin_policy () =
  let config = { Smalldb.default_config with policy = Smalldb.Every_n_updates 10 } in
  let _, _, db = mem_mdb ~config () in
  (* Each partition's 10th update starts its pickle and its 11th
     installs it. *)
  for i = 0 to 44 do
    let partition = i mod 4 in
    set db ~partition (Printf.sprintf "p%d-k%04d" partition i) (string_of_int i);
    settle (part db partition)
  done;
  let total_ckpts = List.fold_left ( + ) 0 (generations db) in
  check Alcotest.int "four automatic checkpoints" 4 total_ckpts

let test_partition_count_fixed () =
  let _, fs, db = mem_mdb ~partitions:4 () in
  set db ~partition:0 "k" "v";
  MDb.close db;
  List.iter
    (fun partitions ->
      match MDb.open_ ~partitions fs with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "partition count change accepted")
    [ 8; 2 ];
  (* A partition whose files are all gone is refused, not recreated. *)
  let p2 = Fs.prefixed fs "p2." in
  List.iter p2.Fs.remove (p2.Fs.list_files ());
  match MDb.open_ ~partitions:4 fs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing partition silently recreated"

let test_update_checked () =
  let _, _, db = mem_mdb () in
  set db ~partition:0 "exists" "yes";
  (match
     KVDb.update_checked (part db 1)
       ~precondition:(fun st ->
         if Smap.mem "exists" st then Ok () else Error "not in this partition")
       (KV.Set ("x", "1"))
   with
  | Error "not in this partition" -> ()
  | Error e -> Alcotest.fail e
  | Ok () -> Alcotest.fail "precondition saw the wrong partition");
  check Alcotest.(option string) "nothing applied" None (get db ~partition:1 "x")

(* Run [f] on a thread and fail, rather than hang, if it has not
   returned within [seconds]. *)
let within ~seconds what f =
  let finished = Atomic.make false in
  let _ = Thread.create (fun () -> f (); Atomic.set finished true) () in
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if not (Atomic.get finished) then
    Alcotest.fail (Printf.sprintf "%s still blocked after %.0f s" what seconds)

let test_raising_precondition_releases_lock () =
  let _, _, db = mem_mdb () in
  (match
     KVDb.update_checked (part db 0)
       ~precondition:(fun _ -> failwith "precondition bug")
       (KV.Set ("x", "1"))
   with
  | exception Failure _ -> ()
  | Ok () | Error () -> Alcotest.fail "raising precondition must propagate");
  within ~seconds:2. "update on partition 1" (fun () -> set db ~partition:1 "k" "v");
  within ~seconds:2. "update on partition 0" (fun () -> set db ~partition:0 "k" "v");
  check Alcotest.(list int) "both applied" [ 1; 1; 0; 0 ] (partition_sizes db ~partitions:4)

(* Disk full: the refused append is rolled back, so the partition goes
   read-only (Degraded) instead of poisoning the store, and leaves
   read-only mode by itself once space turns up. *)
let test_no_space_degrades () =
  let store = Mem.create_store ~seed:62 () in
  let ctl, fs = Fault.wrap (Mem.fs store) in
  let db = MDb.open_exn ~partitions:4 fs in
  fill db ~partitions:4 ~n:8;
  Fault.set_capacity ctl (Some (Mem.total_bytes store + 8));
  (match set db ~partition:0 "big" (String.make 64 'x') with
  | exception Smalldb.Degraded _ -> ()
  | exception e -> Alcotest.fail ("expected Degraded, got " ^ Printexc.to_string e)
  | () -> Alcotest.fail "update past the capacity committed");
  check Alcotest.(list int) "every partition still answers" [ 2; 2; 2; 2 ]
    (partition_sizes db ~partitions:4);
  Fault.set_capacity ctl None;
  Thread.delay 0.03;
  set db ~partition:0 "big" (String.make 64 'x');
  check Alcotest.bool "healthy again" true (KVDb.health (part db 0) = `Healthy);
  check Alcotest.(list int) "update resumed" [ 3; 2; 2; 2 ] (partition_sizes db ~partitions:4);
  MDb.close db

(* A crash anywhere in creation leaves a store that opens as a fresh,
   working one with the requested partition count. *)
let test_crashed_creation () =
  List.iter
    (fun mode ->
      let k = ref 1 and continue = ref true in
      while !continue do
        let store = Mem.create_store ~seed:(9000 + !k) () in
        let fs = Mem.fs store in
        Mem.set_crash_after store ~ops:!k ~mode;
        (match MDb.open_exn ~partitions:3 fs with
        | db ->
          continue := false;
          MDb.close db
        | exception Mem.Crash -> ());
        Mem.disarm_crash store;
        let db = MDb.open_exn ~partitions:3 fs in
        check Alcotest.(list int) "empty" [ 0; 0; 0 ] (partition_sizes db ~partitions:3);
        set db ~partition:2 "k" "v";
        MDb.close db;
        let db = MDb.open_exn ~partitions:3 fs in
        check Alcotest.(list int) "usable" [ 0; 0; 1 ] (partition_sizes db ~partitions:3);
        MDb.close db;
        incr k
      done)
    [ Mem.Clean; Mem.Torn ]

(* Crash sweep: workload with per-partition checkpoints; recovery must
   never lose a committed update or invent one, per partition. *)
let test_crash_sweep () =
  List.iter
    (fun mode ->
      let partitions = 3 in
      let run crash_at seed =
        let store = Mem.create_store ~seed () in
        let fs = Mem.fs store in
        let committed = Array.make partitions 0 in
        let crashed = ref false in
        (try
           let db = MDb.open_exn ~partitions fs in
           Mem.set_crash_after store ~ops:crash_at ~mode;
           for i = 0 to 17 do
             let k = i mod partitions in
             KVDb.update (part db k)
               (KV.Set (Printf.sprintf "key%04d" i, string_of_int i));
             committed.(k) <- committed.(k) + 1;
             if i mod 6 = 5 then KVDb.checkpoint (part db (i mod partitions))
           done;
           Mem.disarm_crash store
         with Mem.Crash -> crashed := true);
        Mem.disarm_crash store;
        (!crashed, committed, fs)
      in
      let k = ref 1 in
      let continue = ref true in
      while !continue do
        let crashed, committed, fs = run !k (8000 + !k) in
        if not !continue then ()
        else if not crashed then continue := false
        else begin
          match MDb.open_ ~partitions fs with
          | Error e -> Alcotest.fail (Printf.sprintf "crash@%d: %s" !k e)
          | Ok db2 ->
            let sizes = partition_sizes db2 ~partitions in
            List.iteri
              (fun p n ->
                if n < committed.(p) then
                  Alcotest.fail
                    (Printf.sprintf "crash@%d: partition %d lost data (%d < %d)" !k p n
                       committed.(p));
                if n > committed.(p) + 1 then
                  Alcotest.fail
                    (Printf.sprintf "crash@%d: partition %d phantom (%d > %d)" !k p n
                       committed.(p)))
              sizes;
            MDb.close db2
        end;
        incr k
      done)
    [ Mem.Clean; Mem.Torn ]

(* Model property: random updates across partitions with interleaved
   partition checkpoints and reopens always equal a per-partition model. *)
type mcmd = MSet of int * int * int | MCkpt of int | MReopen

let gen_mcmd =
  QCheck2.Gen.(
    frequency
      [
        (6, map3 (fun p k v -> MSet (p, k, v)) (0 -- 2) (0 -- 10) (0 -- 99));
        (2, map (fun p -> MCkpt p) (0 -- 2));
        (1, pure MReopen);
      ])

let prop_multidb_model =
  Helpers.qtest ~count:60 "multidb matches per-partition model"
    QCheck2.Gen.(list_size (0 -- 35) gen_mcmd)
    (fun cmds ->
      let partitions = 3 in
      let store = Mem.create_store ~seed:77 () in
      let fs = Mem.fs store in
      let model = Array.init partitions (fun _ -> Hashtbl.create 8) in
      let db = ref (MDb.open_exn ~partitions fs) in
      let agree () =
        List.for_all
          (fun p ->
            KVDb.query (part !db p) (fun st ->
                Smap.cardinal st = Hashtbl.length model.(p)
                && Hashtbl.fold
                     (fun k v acc -> acc && Smap.find_opt k st = Some v)
                     model.(p) true))
          (List.init partitions Fun.id)
      in
      let ok =
        List.for_all
          (fun cmd ->
            (match cmd with
            | MSet (p, k, v) ->
              let key = Printf.sprintf "k%02d" k and value = string_of_int v in
              Hashtbl.replace model.(p) key value;
              KVDb.update (part !db p) (KV.Set (key, value))
            | MCkpt p -> KVDb.checkpoint (part !db p)
            | MReopen ->
              MDb.close !db;
              db := MDb.open_exn ~partitions fs);
            agree ())
          cmds
      in
      MDb.close !db;
      ok)

let () =
  Helpers.run "multidb"
    [
      ("model", [ prop_multidb_model ]);
      ( "operations",
        [
          Alcotest.test_case "partition isolation" `Quick test_basic_isolation;
          Alcotest.test_case "one write per update" `Quick test_one_write_per_update;
          Alcotest.test_case "update_checked" `Quick test_update_checked;
          Alcotest.test_case "raising precondition releases the lock" `Quick
            test_raising_precondition_releases_lock;
          Alcotest.test_case "disk full degrades, then recovers" `Quick
            test_no_space_degrades;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "durability without checkpoints" `Quick
            test_durability_no_checkpoints;
          Alcotest.test_case "partition checkpoint reduces replay" `Quick
            test_partition_checkpoint_reduces_replay;
          Alcotest.test_case "round robin" `Quick test_round_robin;
          Alcotest.test_case "log switch and flush rules" `Quick
            test_log_switch_and_flush;
          Alcotest.test_case "recovery across multiple logs" `Quick
            test_recovery_across_multiple_logs;
          Alcotest.test_case "auto round-robin policy" `Quick
            test_auto_round_robin_policy;
          Alcotest.test_case "partition count fixed" `Quick test_partition_count_fixed;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash sweep" `Quick test_crash_sweep;
          Alcotest.test_case "crashed creation" `Quick test_crashed_creation;
        ] );
    ]
