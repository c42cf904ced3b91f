(* The cost model must actually reproduce the §5 calibration points:
   these tests run real engine operations on the simulated store and
   check that the modelled 1987 times land on the paper's numbers. *)

module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Cost = Sdb_costmodel.Costmodel
module P = Sdb_pickle.Pickle
open Helpers

let check = Alcotest.check
let costs = Cost.microvax_1987

let within name ~expect ~tolerance actual =
  if Float.abs (actual -. expect) > tolerance then
    Alcotest.fail
      (Printf.sprintf "%s: modelled %.1f, expected %.1f (+/- %.1f)" name actual expect
         tolerance)

(* A payload sized like the paper's update parameters (~300 B pickled). *)
let paper_payload = String.make 280 'p'

let test_update_models_54ms () =
  let _, fs, db = mem_db () in
  KVDb.update db (KV.Set ("warm", "up"));
  let snap = Cost.snapshot fs in
  KVDb.update db (KV.Set ("key", paper_payload));
  let m = Cost.model costs (Cost.since ~explore_ops:1 ~modify_ops:1 snap fs) in
  (* Paper: 6 + 6 + 22 + 20 = 54 ms. *)
  within "update total" ~expect:54.0 ~tolerance:4.0 m.Cost.total_model_ms;
  within "explore" ~expect:6.0 ~tolerance:0.01 m.Cost.explore_model_ms;
  within "modify" ~expect:6.0 ~tolerance:0.01 m.Cost.modify_model_ms;
  within "pickle" ~expect:22.0 ~tolerance:3.0 m.Cost.pickle_model_ms;
  within "log write" ~expect:20.0 ~tolerance:3.0 m.Cost.disk_model_ms;
  (* The paper's "about 40% of the cost of an update is in PickleWrite". *)
  let share = m.Cost.pickle_model_ms /. m.Cost.total_model_ms in
  Alcotest.check Alcotest.bool "pickle share ~40%" true (share > 0.3 && share < 0.5)

let test_checkpoint_models_one_minute () =
  (* Build ~1 MiB of state and checkpoint it. *)
  let _, fs, db = mem_db () in
  let rng = Sdb_util.Rng.create ~seed:5 in
  let batch = ref [] in
  for i = 0 to 11_000 do
    batch := KV.Set (Printf.sprintf "key%06d" i, Sdb_util.Rng.string rng ~len:64) :: !batch;
    if List.length !batch = 500 then begin
      KVDb.update_batch db !batch;
      batch := []
    end
  done;
  KVDb.update_batch db !batch;
  let snap = Cost.snapshot fs in
  KVDb.checkpoint db;
  let m = Cost.model costs (Cost.since snap fs) in
  let gen = (KVDb.stats db).Smalldb.generation in
  let blob = fs.Fs.file_size (Sdb_checkpoint.Checkpoint_store.checkpoint_file gen) in
  (* Scale the paper's 60 s/MiB to the blob we actually wrote. *)
  let mib = float_of_int blob /. float_of_int (1 lsl 20) in
  within "checkpoint total"
    ~expect:(60_000.0 *. mib)
    ~tolerance:(12_000.0 *. mib)
    m.Cost.total_model_ms;
  (* Pickling dominates the disk ~10:1 (55 s vs 5 s). *)
  Alcotest.check Alcotest.bool "pickle dominates" true
    (m.Cost.pickle_model_ms > 6.0 *. m.Cost.disk_model_ms)

let test_restart_models_20ms_per_entry () =
  let _, fs, db = mem_db () in
  for i = 0 to 99 do
    KVDb.update db (KV.Set (sequenced_key i, paper_payload))
  done;
  KVDb.close db;
  let snap = Cost.snapshot fs in
  let db2 = KVDb.open_exn fs in
  let m = Cost.model costs (Cost.since ~modify_ops:100 snap fs) in
  KVDb.close db2;
  (* 100 entries at ~20 ms each, plus a small checkpoint read. *)
  let per_entry = m.Cost.total_model_ms /. 100.0 in
  within "replay per entry" ~expect:20.0 ~tolerance:5.0 per_entry

let test_rpc_models_8ms () =
  let m =
    Cost.model costs
      {
        Cost.explore_ops = 0;
        modify_ops = 0;
        pickle_ops = 0;
        pickled_bytes = 0;
        unpickle_ops = 0;
        unpickled_bytes = 0;
        disk = Fs.Counters.create ();
        rpc_round_trips = 3;
      }
  in
  check (Alcotest.float 1e-9) "3 round trips" 24.0 m.Cost.rpc_model_ms;
  check (Alcotest.float 1e-9) "total is rpc only" 24.0 m.Cost.total_model_ms

let test_breakdown_sums () =
  let _, fs, db = mem_db () in
  let snap = Cost.snapshot fs in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  let m = Cost.model costs (Cost.since ~explore_ops:10 ~modify_ops:10 snap fs) in
  let parts =
    m.Cost.explore_model_ms +. m.Cost.modify_model_ms +. m.Cost.pickle_model_ms
    +. m.Cost.unpickle_model_ms +. m.Cost.disk_model_ms +. m.Cost.rpc_model_ms
  in
  check (Alcotest.float 1e-6) "total = sum of parts" parts m.Cost.total_model_ms

let test_since_isolates_window () =
  let _, fs, db = mem_db () in
  KVDb.update db (sequenced_update 0);
  let snap = Cost.snapshot fs in
  (* Nothing happened since the snapshot. *)
  let m = Cost.model costs (Cost.since snap fs) in
  check (Alcotest.float 1e-9) "empty window" 0.0 m.Cost.total_model_ms;
  KVDb.update db (sequenced_update 1);
  let m = Cost.model costs (Cost.since snap fs) in
  Alcotest.check Alcotest.bool "window sees one update" true
    (m.Cost.total_model_ms > 10.0 && m.Cost.total_model_ms < 100.0)

let test_pickle_counters_feed_model () =
  P.Counters.reset ();
  let store = Mem.create_store () in
  let fs = Mem.fs store in
  let snap = Cost.snapshot fs in
  ignore (P.encode P.string (String.make 1000 'x'));
  let a = Cost.since snap fs in
  check Alcotest.int "one pickle op" 1 a.Cost.pickle_ops;
  Alcotest.check Alcotest.bool "bytes counted" true (a.Cost.pickled_bytes >= 1000)

let () =
  Helpers.run "costmodel"
    [
      ( "calibration",
        [
          Alcotest.test_case "update is ~54 ms" `Quick test_update_models_54ms;
          Alcotest.test_case "1 MiB checkpoint is ~1 minute" `Quick
            test_checkpoint_models_one_minute;
          Alcotest.test_case "replay is ~20 ms/entry" `Quick
            test_restart_models_20ms_per_entry;
          Alcotest.test_case "RPC round trip is 8 ms" `Quick test_rpc_models_8ms;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "breakdown sums" `Quick test_breakdown_sums;
          Alcotest.test_case "since isolates the window" `Quick
            test_since_isolates_window;
          Alcotest.test_case "pickle counters feed in" `Quick
            test_pickle_counters_feed_model;
        ] );
    ]
