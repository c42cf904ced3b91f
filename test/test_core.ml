module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Store = Sdb_checkpoint.Checkpoint_store
module P = Sdb_pickle.Pickle
open Helpers

let check = Alcotest.check

let get db k = KVDb.query db (Smap.find_opt k)
let set db k v = KVDb.update db (KV.Set (k, v))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)

let test_create_and_query () =
  let _, _, db = mem_db () in
  check Alcotest.(option string) "empty" None (get db "x");
  set db "x" "1";
  set db "y" "2";
  check Alcotest.(option string) "x" (Some "1") (get db "x");
  check Alcotest.(option string) "y" (Some "2") (get db "y");
  KVDb.update db (KV.Del "x");
  check Alcotest.(option string) "deleted" None (get db "x");
  let s = KVDb.stats db in
  check Alcotest.int "lsn" 3 s.Smalldb.lsn;
  check Alcotest.int "committed" 3 s.Smalldb.updates_committed;
  check Alcotest.int "generation" 0 s.Smalldb.generation;
  check Alcotest.int "log entries" 3 s.Smalldb.log_entries

let test_durability_across_reopen () =
  let _, fs, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "all updates replayed" 10 (sequenced_prefix db2);
  let s = KVDb.stats db2 in
  check Alcotest.int "replayed" 10 s.Smalldb.recovery.Smalldb.replayed;
  check Alcotest.int "lsn continues" 10 s.Smalldb.lsn;
  (* LSNs keep increasing across restarts. *)
  KVDb.update db2 (sequenced_update 10);
  check Alcotest.int "lsn" 11 (KVDb.stats db2).Smalldb.lsn

let test_checkpoint_resets_log () =
  let _, fs, db = mem_db () in
  for i = 0 to 4 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  let s = KVDb.stats db in
  check Alcotest.int "generation bumped" 1 s.Smalldb.generation;
  check Alcotest.int "log reset" 0 s.Smalldb.log_entries;
  check Alcotest.int "lsn preserved" 5 s.Smalldb.lsn;
  check Alcotest.int "checkpoints" 1 s.Smalldb.checkpoints_written;
  (* More updates after the checkpoint. *)
  for i = 5 to 7 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "checkpoint + replay" 8 (sequenced_prefix db2);
  check Alcotest.int "only log entries replayed" 3
    (KVDb.stats db2).Smalldb.recovery.Smalldb.replayed

let test_close_then_reopen_idempotent () =
  let _, fs, db = mem_db () in
  set db "a" "1";
  KVDb.close db;
  KVDb.close db;
  (match get db "a" with
  | _ -> Alcotest.fail "expected Closed"
  | exception Smalldb.Closed -> ());
  let db2 = KVDb.open_exn fs in
  check Alcotest.(option string) "value" (Some "1") (get db2 "a")

let test_open_empty_fs_is_durable_immediately () =
  let store, fs, db = mem_db () in
  KVDb.close db;
  (* Even with zero updates, the store must recover to empty. *)
  Mem.crash store ~mode:Mem.Clean;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "empty" 0 (sequenced_prefix db2)

(* ------------------------------------------------------------------ *)
(* The three-step update                                                *)

let test_precondition_blocks_update () =
  let _, fs, db = mem_db () in
  let before = Fs.Counters.copy fs.Fs.counters in
  let r =
    KVDb.update_checked db
      ~precondition:(fun st ->
        if Smap.mem "absent" st then Ok () else Error "missing key")
      (KV.Set ("x", "1"))
  in
  check (Alcotest.result Alcotest.unit Alcotest.string) "rejected" (Error "missing key") r;
  (* Nothing reached the disk and nothing changed in memory. *)
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "no disk writes" 0 d.Fs.Counters.data_writes;
  check Alcotest.(option string) "memory untouched" None (get db "x");
  check Alcotest.int "lsn unchanged" 0 (KVDb.stats db).Smalldb.lsn

let test_precondition_passes () =
  let _, _, db = mem_db () in
  set db "x" "1";
  let r =
    KVDb.update_checked db
      ~precondition:(fun st ->
        if Smap.mem "x" st then Ok () else Error "missing")
      (KV.Set ("x", "2"))
  in
  check (Alcotest.result Alcotest.unit Alcotest.string) "accepted" (Ok ()) r;
  check Alcotest.(option string) "applied" (Some "2") (get db "x")

let test_update_is_one_write_one_sync () =
  let _, fs, db = mem_db () in
  set db "warm" "up";
  let before = Fs.Counters.copy fs.Fs.counters in
  set db "x" "1";
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "one write" 1 d.Fs.Counters.data_writes;
  check Alcotest.int "one sync" 1 d.Fs.Counters.syncs;
  check Alcotest.int "no reads" 0 d.Fs.Counters.data_reads

let test_batch_single_sync () =
  let _, fs, db = mem_db () in
  let before = Fs.Counters.copy fs.Fs.counters in
  KVDb.update_batch db (List.init 5 sequenced_update);
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "one write" 1 d.Fs.Counters.data_writes;
  check Alcotest.int "one sync" 1 d.Fs.Counters.syncs;
  check Alcotest.int "all applied" 5 (sequenced_prefix db);
  check Alcotest.int "lsn" 5 (KVDb.stats db).Smalldb.lsn;
  KVDb.update_batch db [];
  check Alcotest.int "empty batch no-op" 5 (KVDb.stats db).Smalldb.lsn

(* An app whose [apply] rejects [Boom] when [strict]: the same name and
   codecs either way, so a store written by the lenient one reopens
   under the strict one. *)
module Bomb (S : sig val strict : bool end) = struct
  type state = int
  type update = Ok_up | Boom

  let name = "bomb"
  let codec_state = P.int
  let codec_update = P.enum ~name:"bomb.update" [ ("ok", Ok_up); ("boom", Boom) ]
  let init () = 0

  let apply st = function
    | Ok_up -> st + 1
    | Boom -> if S.strict then failwith "apply exploded" else st
end

module Strict = Bomb (struct let strict = true end)
module Lenient = Bomb (struct let strict = false end)
module StrictDb = Smalldb.Make (Strict)
module LenientDb = Smalldb.Make (Lenient)

let test_raising_apply_fails_before_commit () =
  let store = Mem.create_store () in
  let db = StrictDb.open_exn (Mem.fs store) in
  StrictDb.update db Strict.Ok_up;
  (match StrictDb.update db Strict.Boom with
  | _ -> Alcotest.fail "expected apply failure"
  | exception Failure m -> check Alcotest.string "the app's exception" "apply exploded" m);
  (* The fold runs before the commit point: nothing was logged, so the
     engine stays usable and the next update takes the next LSN. *)
  check Alcotest.bool "healthy" true (StrictDb.health db = `Healthy);
  StrictDb.update db Strict.Ok_up;
  check Alcotest.int "next update at lsn 2" 2 (StrictDb.stats db).Smalldb.lsn;
  check Alcotest.int "state" 2 (StrictDb.query db Fun.id);
  check
    Alcotest.(list int)
    "no log entry for the raising update" [ 0; 1 ]
    (List.rev (StrictDb.fold_log db ~init:[] ~f:(fun acc lsn u ->
         check Alcotest.bool "logged update applies" true (u = Strict.Ok_up);
         lsn :: acc)));
  StrictDb.close db;
  let db2 = StrictDb.open_exn (Mem.fs store) in
  check Alcotest.int "reopens at that lsn" 2 (StrictDb.stats db2).Smalldb.lsn;
  check Alcotest.int "replayed state" 2 (StrictDb.query db2 Fun.id);
  StrictDb.close db2

let test_unappliable_log_entry_is_open_error () =
  let store = Mem.create_store () in
  let db = LenientDb.open_exn (Mem.fs store) in
  LenientDb.update db Lenient.Ok_up;
  LenientDb.update db Lenient.Boom;
  LenientDb.close db;
  match StrictDb.open_ (Mem.fs store) with
  | Ok _ -> Alcotest.fail "expected an open error"
  | Error e ->
    check Alcotest.bool ("names the log and lsn 1: " ^ e) true
      (contains ~needle:(Store.log_file 0) e && contains ~needle:"lsn 1" e)

let test_raising_precondition_releases_lock () =
  (* A precondition that raises (rather than returning [Error]) must
     release the update lock: the engine stays usable and the next
     update does not deadlock on a leaked lock. *)
  let _, fs, db = mem_db () in
  let before = Fs.Counters.copy fs.Fs.counters in
  (match
     KVDb.update_checked db
       ~precondition:(fun _ -> failwith "precondition exploded")
       (KV.Set ("x", "1"))
   with
  | _ -> Alcotest.fail "expected the precondition's exception"
  | exception Failure m -> check Alcotest.string "same exception" "precondition exploded" m);
  (* Nothing committed, nothing poisoned. *)
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "no disk writes" 0 d.Fs.Counters.data_writes;
  check Alcotest.(option string) "memory untouched" None (get db "x");
  (* Both lock modes must still be acquirable. *)
  set db "x" "2";
  check Alcotest.(option string) "engine still usable" (Some "2") (get db "x");
  check Alcotest.int "lsn counts only the good update" 1 (KVDb.stats db).Smalldb.lsn

(* A KV app whose pickler detonates on a chosen key — for proving that
   an encoding failure releases the lock without poisoning (nothing
   reached the disk). *)
module Fragile = struct
  type state = string Smap.t
  type update = string * string

  let name = "fragile-kv"
  let codec_state = KV.codec_state

  let codec_update =
    P.conv ~name:"fragile.update"
      (fun (k, v) -> if String.equal k "boom" then failwith "pickler exploded" else (k, v))
      Fun.id
      (P.pair P.string P.string)

  let init () = Smap.empty
  let apply st (k, v) = Smap.add k v st
end

module FragileDb = Smalldb.Make (Fragile)

let test_raising_pickler_releases_lock () =
  let store = Mem.create_store () in
  let db = FragileDb.open_exn (Mem.fs store) in
  FragileDb.update db ("a", "1");
  (match FragileDb.update db ("boom", "x") with
  | () -> Alcotest.fail "expected the pickler's exception"
  | exception Failure _ -> ());
  (* Unlike an append or apply failure, nothing was committed: the
     engine is NOT poisoned and keeps working. *)
  FragileDb.update db ("b", "2");
  check Alcotest.(option string) "still usable"
    (Some "2")
    (FragileDb.query db (Smap.find_opt "b"));
  check Alcotest.int "only the good updates committed" 2
    (FragileDb.stats db).Smalldb.lsn

let test_raising_pickler_in_batch () =
  let store = Mem.create_store () in
  let db = FragileDb.open_exn (Mem.fs store) in
  (match FragileDb.update_batch db [ ("a", "1"); ("boom", "x"); ("c", "3") ] with
  | () -> Alcotest.fail "expected the pickler's exception"
  | exception Failure _ -> ());
  check Alcotest.int "nothing committed" 0 (FragileDb.stats db).Smalldb.lsn;
  FragileDb.update_batch db [ ("a", "1"); ("c", "3") ];
  check Alcotest.(option string) "still usable"
    (Some "3")
    (FragileDb.query db (Smap.find_opt "c"))

let test_raising_subscriber_after_commit () =
  (* A subscriber that raises propagates to the updater — but only
     after the commit point, with no lock held: the update is durable,
     applied, and the engine keeps working. *)
  let _, _, db = mem_db () in
  let sub = KVDb.subscribe db (fun _lsn _u -> failwith "subscriber exploded") in
  (match set db "x" "1" with
  | () -> Alcotest.fail "expected the subscriber's exception"
  | exception Failure _ -> ());
  KVDb.unsubscribe db sub;
  check Alcotest.(option string) "update was applied" (Some "1") (get db "x");
  check Alcotest.int "and committed" 1 (KVDb.stats db).Smalldb.lsn;
  set db "y" "2";
  check Alcotest.(option string) "engine still usable" (Some "2") (get db "y")

(* ------------------------------------------------------------------ *)
(* Checkpoint policies                                                  *)

(* A policy checkpoint pickles on its own domain: the commit that makes
   one due starts it, and the next commit or [close] installs it, with
   the entries committed since its snapshot carried over.  The tests
   [settle] after each commit, so each pickle has finished by then. *)
let test_policy_every_n () =
  let config = { Smalldb.default_config with policy = Smalldb.Every_n_updates 3 } in
  let _, _, db = mem_db ~config () in
  for i = 0 to 8 do
    KVDb.update db (sequenced_update i);
    settle db
  done;
  (* The 4th and 7th updates installed the first two; close installs the third,
     which covers every update. *)
  KVDb.close db;
  let s = KVDb.stats db in
  check Alcotest.int "three checkpoints" 3 s.Smalldb.checkpoints_written;
  check Alcotest.int "generation" 3 s.Smalldb.generation;
  check Alcotest.int "log empty after auto-checkpoint" 0 s.Smalldb.log_entries

let test_policy_every_n_batch_crossing () =
  (* A batch that jumps over the policy's multiple must still trigger
     the checkpoint: the policy counts updates since the last
     checkpoint, not [committed mod n]. *)
  let config = { Smalldb.default_config with policy = Smalldb.Every_n_updates 5 } in
  let _, fs, db = mem_db ~config () in
  KVDb.update_batch db (List.init 7 sequenced_update);
  settle db;
  KVDb.close db;
  let s = KVDb.stats db in
  check Alcotest.int "batch crossing the boundary checkpoints" 1
    s.Smalldb.checkpoints_written;
  check Alcotest.int "log reset" 0 s.Smalldb.log_entries;
  (* The counter restarts from the checkpoint: five more singles fire
     exactly one more. *)
  let db2 = KVDb.open_exn ~config fs in
  for i = 7 to 11 do
    KVDb.update db2 (sequenced_update i);
    settle db2
  done;
  KVDb.close db2;
  check Alcotest.int "counter reset at the checkpoint" 2
    (s.Smalldb.checkpoints_written + (KVDb.stats db2).Smalldb.checkpoints_written);
  check Alcotest.int "nothing lost" 12 (sequenced_prefix (KVDb.open_exn ~config fs))

let test_policy_log_bytes () =
  let config =
    { Smalldb.default_config with policy = Smalldb.Log_bytes_exceeds 200 }
  in
  let _, _, db = mem_db ~config () in
  for i = 0 to 19 do
    KVDb.update db (sequenced_update i);
    settle db
  done;
  let s = KVDb.stats db in
  Alcotest.check Alcotest.bool "checkpointed at least once" true
    (s.Smalldb.checkpoints_written > 0);
  Alcotest.check Alcotest.bool "log stays bounded" true (s.Smalldb.log_bytes <= 400);
  check Alcotest.int "nothing lost" 20 (sequenced_prefix db)

let test_manual_policy_never_auto () =
  let _, _, db = mem_db () in
  for i = 0 to 49 do
    KVDb.update db (sequenced_update i)
  done;
  check Alcotest.int "no auto checkpoints" 0 (KVDb.stats db).Smalldb.checkpoints_written

(* ------------------------------------------------------------------ *)
(* Audit trail                                                          *)

let test_fold_log_audit () =
  let _, _, db = mem_db () in
  for i = 0 to 4 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  for i = 5 to 6 do
    KVDb.update db (sequenced_update i)
  done;
  let entries = KVDb.fold_log db ~init:[] ~f:(fun acc lsn u -> (lsn, u) :: acc) in
  (* Only the current generation's updates, with absolute LSNs. *)
  check Alcotest.int "two entries" 2 (List.length entries);
  (match List.rev entries with
  | [ (5, KV.Set (k5, _)); (6, KV.Set (k6, _)) ] ->
    check Alcotest.string "lsn 5 key" (sequenced_key 5) k5;
    check Alcotest.string "lsn 6 key" (sequenced_key 6) k6
  | _ -> Alcotest.fail "wrong audit entries");
  (* log_suffix covering and non-covering. *)
  (match KVDb.log_suffix db ~from:6 with
  | Some [ (6, _) ] -> ()
  | _ -> Alcotest.fail "suffix from 6");
  (match KVDb.log_suffix db ~from:5 with
  | Some l -> check Alcotest.int "suffix from 5" 2 (List.length l)
  | None -> Alcotest.fail "should cover 5");
  match KVDb.log_suffix db ~from:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "2 was absorbed by the checkpoint"

(* ------------------------------------------------------------------ *)
(* Type safety of the store                                             *)

let test_foreign_app_rejected () =
  let module Other = struct
    type state = int list
    type update = int

    let name = "other-app"
    let codec_state = P.list P.int
    let codec_update = P.int
    let init () = []
    let apply st u = u :: st
  end in
  let module OtherDb = Smalldb.Make (Other) in
  let _, fs, db = mem_db () in
  set db "a" "1";
  KVDb.close db;
  match OtherDb.open_ fs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign app opened someone else's store"

let test_same_wire_different_name_rejected () =
  (* Same state/update wire types, different application name. *)
  let module KV2 = struct
    include KV

    let name = "test-kv-imposter"
  end in
  let module Db2 = Smalldb.Make (KV2) in
  let _, fs, db = mem_db () in
  set db "a" "1";
  KVDb.close db;
  match Db2.open_ fs with
  | Error e ->
    Alcotest.check Alcotest.bool "names the app" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "imposter app accepted"

(* ------------------------------------------------------------------ *)
(* Hard errors (§4)                                                     *)

let retained_config = { Smalldb.default_config with retain_previous = true }

let test_hard_error_checkpoint_fallback () =
  let store, fs, db = mem_db ~config:retained_config () in
  for i = 0 to 4 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  (* generation 1 *)
  for i = 5 to 7 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.close db;
  (* Damage the current checkpoint: recovery must reload the previous
     checkpoint, replay the previous log, then the current log. *)
  Mem.damage store ~file:(Store.checkpoint_file 1) ~offset:10 ~len:20;
  let db2 = KVDb.open_exn ~config:retained_config fs in
  check Alcotest.int "full state recovered" 8 (sequenced_prefix db2);
  let r = (KVDb.stats db2).Smalldb.recovery in
  Alcotest.check Alcotest.bool "used previous generation" true
    r.Smalldb.used_previous_generation;
  (* The rescue checkpoint wrote a fresh generation; another restart
     must now succeed without the fallback. *)
  KVDb.close db2;
  let db3 = KVDb.open_exn ~config:retained_config fs in
  check Alcotest.int "stable thereafter" 8 (sequenced_prefix db3);
  Alcotest.check Alcotest.bool "no fallback needed" false
    (KVDb.stats db3).Smalldb.recovery.Smalldb.used_previous_generation

let test_hard_error_without_retention_fails () =
  let store, fs, db = mem_db () in
  set db "a" "1";
  KVDb.checkpoint db;
  KVDb.close db;
  Mem.damage store ~file:(Store.checkpoint_file 1) ~offset:5 ~len:5;
  match KVDb.open_ fs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opened with damaged checkpoint and no fallback"

(* A current log that does not start where its checkpoint ends is
   another generation's: recovery refuses it instead of replaying it. *)
let test_log_base_mismatch_refused () =
  let _, fs, db = mem_db () in
  for i = 0 to 2 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  KVDb.close db;
  let w =
    Sdb_wal.Wal.Writer.create fs (Store.log_file 1) ~fingerprint:(P.fingerprint KV.codec_update)
      ~base_lsn:0
  in
  Sdb_wal.Wal.Writer.close w;
  match KVDb.open_ fs with
  | Error e ->
    check Alcotest.bool "names both lsns" true
      (Helpers.contains ~needle:"starts at lsn 0" e && Helpers.contains ~needle:"lsn 3" e)
  | Ok _ -> fail "opened a log that does not start at its checkpoint's lsn"

let test_interior_log_damage_refused () =
  (* Valid committed entries beyond a damaged one: recovery must refuse
     to silently truncate them under the default policy, and recover
     them under Skip_damaged. *)
  let store, fs, db = mem_db () in
  for i = 0 to 4 do
    KVDb.update db (KV.Set (sequenced_key i, String.make 2000 'v'))
  done;
  KVDb.close db;
  Mem.damage store ~file:(Store.log_file 0) ~offset:2500 ~len:100;
  (match KVDb.open_ fs with
  | Error e ->
    Alcotest.check Alcotest.bool "mentions interior damage" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "interior damage silently truncated");
  let skip_config = { Smalldb.default_config with log_recovery = `Skip_damaged } in
  match KVDb.open_ ~config:skip_config fs with
  | Ok db2 ->
    check Alcotest.int "entries beyond damage recovered" 4
      (KVDb.query db2 Smap.cardinal)
  | Error e -> Alcotest.fail e

let test_skip_damaged_log_entry () =
  let skip_config = { Smalldb.default_config with log_recovery = `Skip_damaged } in
  let store, fs, db = mem_db ~config:skip_config () in
  (* Large-ish entries so one can be damaged in isolation. *)
  for i = 0 to 3 do
    KVDb.update db (KV.Set (sequenced_key i, String.make 2000 'v'))
  done;
  KVDb.close db;
  (* Damage entry #1's payload region (device-level hard error). *)
  Mem.damage store ~file:(Store.log_file 0) ~offset:2500 ~len:100;
  let db2 = KVDb.open_exn ~config:skip_config fs in
  let s = KVDb.stats db2 in
  check Alcotest.int "skipped one" 1 s.Smalldb.recovery.Smalldb.skipped_damaged;
  check Alcotest.int "replayed the rest" 3 s.Smalldb.recovery.Smalldb.replayed;
  (* The database is missing exactly the damaged update. *)
  check Alcotest.(option string) "entry 0 present" (Some (String.make 2000 'v'))
    (get db2 (sequenced_key 0));
  check Alcotest.(option string) "entry 1 lost" None (get db2 (sequenced_key 1));
  check Alcotest.bool "entry 3 present" true (get db2 (sequenced_key 3) <> None)

(* ------------------------------------------------------------------ *)
(* Audit-trail archiving and history (§4)                               *)

let archive_config = { Smalldb.default_config with archive_logs = true }

let test_archive_accumulates () =
  let _, fs, db = mem_db ~config:archive_config () in
  for i = 0 to 3 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  for i = 4 to 6 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  let archives = Sdb_checkpoint.Checkpoint_store.archived_logs fs in
  check Alcotest.(list (pair int string)) "two archives"
    [ (0, "archive-logfile0"); (1, "archive-logfile1") ]
    archives;
  (* Archives survive restart cleanup. *)
  KVDb.close db;
  let db2 = KVDb.open_exn ~config:archive_config fs in
  check Alcotest.int "archives survive recovery" 2
    (List.length (Sdb_checkpoint.Checkpoint_store.archived_logs fs));
  KVDb.close db2

let test_history_fold_and_state_at () =
  let _, _fs, db = mem_db ~config:archive_config () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i);
    if i = 3 || i = 7 then KVDb.checkpoint db
  done;
  Alcotest.check Alcotest.bool "history available" true (KVDb.History.available db);
  (* The full trail, in order, across archives and the live log. *)
  (match KVDb.History.fold db ~init:[] ~f:(fun acc lsn u -> (lsn, u) :: acc) with
  | Error e -> Alcotest.fail e
  | Ok entries ->
    let entries = List.rev entries in
    check Alcotest.int "all ten updates" 10 (List.length entries);
    List.iteri
      (fun i (lsn, u) ->
        check Alcotest.int "lsn order" i lsn;
        match u with
        | KV.Set (k, _) -> check Alcotest.string "key" (sequenced_key i) k
        | KV.Del _ -> Alcotest.fail "unexpected delete")
      entries);
  (* Time travel. *)
  (match KVDb.History.state_at db ~lsn:5 with
  | Error e -> Alcotest.fail e
  | Ok st -> check Alcotest.int "state at lsn 5" 5 (Smap.cardinal st));
  (match KVDb.History.state_at db ~lsn:0 with
  | Error e -> Alcotest.fail e
  | Ok st -> check Alcotest.int "state at lsn 0" 0 (Smap.cardinal st));
  (match KVDb.History.state_at db ~lsn:10 with
  | Error e -> Alcotest.fail e
  | Ok st ->
    check Alcotest.int "state at tip" 10 (Smap.cardinal st);
    (* It must equal the live state. *)
    let live = kv_contents db in
    let replayed = Smap.bindings st in
    check Alcotest.(list (pair string string)) "tip equals live" live replayed);
  match KVDb.History.state_at db ~lsn:11 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lsn beyond tip accepted"

(* With retain_previous too, generation g-1's log stays live as
   logfile<g-1> instead of joining the archive; history must still read
   it as that generation's log. *)
(* [fold] compares the trail with the LSN read in its own Update hold,
   so updates committing beside it, on another domain, never make a
   good trail look short. *)
let test_history_beside_committer () =
  let _, _, db = mem_db ~config:archive_config () in
  let stop = Atomic.make false and commits = Atomic.make 0 in
  let committer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          KVDb.update db (sequenced_update (!i mod 64));
          if !i mod 50 = 49 then KVDb.checkpoint db;
          incr i;
          Atomic.incr commits
        done)
  in
  let failures = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join committer)
    (fun () ->
      await "the committer" (fun () -> Atomic.get commits > 0);
      let first = Atomic.get commits in
      (* Fold until the committer has committed 200 more updates, so
         every run folds beside commits, however the two are
         scheduled. *)
      await "updates committed beside the folds" (fun () ->
          (match KVDb.History.fold db ~init:0 ~f:(fun n _ _ -> n + 1) with
          | Ok _ -> ()
          | Error e -> failures := e :: !failures);
          if not (KVDb.History.available db) then failures := "unavailable" :: !failures;
          Atomic.get commits >= first + 200));
  check Alcotest.(list string) "every fold succeeded" [] (List.rev !failures);
  KVDb.close db

let test_history_with_retained_previous () =
  let config = { archive_config with retain_previous = true } in
  let _, _, db = mem_db ~config () in
  for i = 0 to 5 do
    KVDb.update db (sequenced_update i);
    if i = 1 || i = 3 then KVDb.checkpoint db
  done;
  Alcotest.check Alcotest.bool "history available" true (KVDb.History.available db);
  (match KVDb.History.fold db ~init:[] ~f:(fun acc lsn _ -> lsn :: acc) with
  | Error e -> Alcotest.fail e
  | Ok lsns ->
    check Alcotest.(list int) "each lsn once" [ 0; 1; 2; 3; 4; 5 ] (List.rev lsns));
  match KVDb.History.state_at db ~lsn:6 with
  | Error e -> Alcotest.fail e
  | Ok st ->
    check Alcotest.(list (pair string string)) "tip equals live" (kv_contents db)
      (Smap.bindings st)

let test_history_unavailable_without_archiving () =
  let _, _, db = mem_db () in
  KVDb.update db (sequenced_update 0);
  KVDb.checkpoint db;
  KVDb.update db (sequenced_update 1);
  Alcotest.check Alcotest.bool "no archive, no history" false
    (KVDb.History.available db);
  match KVDb.History.fold db ~init:0 ~f:(fun acc _ _ -> acc + 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete history accepted"

let test_history_survives_crash_mid_checkpoint () =
  (* A crash between the commit point and the archival rename must not
     lose the superseded log from the trail. *)
  let found_crash = ref false in
  let k = ref 1 in
  while not !found_crash && !k < 60 do
    let store = Mem.create_store ~seed:(7000 + !k) () in
    let fs = Mem.fs store in
    let db = KVDb.open_exn ~config:archive_config fs in
    for i = 0 to 3 do
      KVDb.update db (sequenced_update i)
    done;
    let crashed = ref false in
    (try
       Mem.set_crash_after store ~ops:!k ~mode:Mem.Clean;
       KVDb.checkpoint db;
       Mem.disarm_crash store
     with Mem.Crash -> crashed := true);
    Mem.disarm_crash store;
    if !crashed then begin
      let db2 = KVDb.open_exn ~config:archive_config fs in
      (* Whatever generation we recovered into, if the checkpoint
         committed then history must still be complete. *)
      if (KVDb.stats db2).Smalldb.generation = 1 then begin
        found_crash := true;
        Alcotest.check Alcotest.bool "history complete after crash" true
          (KVDb.History.available db2)
      end;
      KVDb.close db2
    end;
    incr k
  done;
  Alcotest.check Alcotest.bool "exercised a post-commit crash" true !found_crash

(* History property: with archiving on, state_at any lsn equals the
   model folded over the first lsn updates, across random checkpoint
   placements. *)
let prop_history_prefix =
  Helpers.qtest ~count:40 "state_at = model prefix"
    QCheck2.Gen.(
      pair
        (list_size (1 -- 25) (pair (0 -- 8) (0 -- 99)))
        (list_size (0 -- 4) (0 -- 24)))
    (fun (ops, ckpt_points) ->
      let _, _, db = mem_db ~config:archive_config () in
      List.iteri
        (fun i (k, v) ->
          KVDb.update db (KV.Set (Printf.sprintf "k%d" k, string_of_int v));
          if List.mem i ckpt_points then KVDb.checkpoint db)
        ops;
      let n = List.length ops in
      let probe = [ 0; n / 2; n ] in
      List.for_all
        (fun lsn ->
          match KVDb.History.state_at db ~lsn with
          | Error _ -> false
          | Ok st ->
            let model = Hashtbl.create 8 in
            List.iteri
              (fun i (k, v) ->
                if i < lsn then
                  Hashtbl.replace model (Printf.sprintf "k%d" k) (string_of_int v))
              ops;
            Smap.cardinal st = Hashtbl.length model
            && Hashtbl.fold
                 (fun k v acc -> acc && Smap.find_opt k st = Some v)
                 model true)
        probe)

(* ------------------------------------------------------------------ *)
(* Timing counters                                                      *)

let test_phase_times_accumulate () =
  let _, fs, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  let p = (KVDb.stats db).Smalldb.phase in
  Alcotest.check Alcotest.bool "pickle time" true (p.Smalldb.pickle_s >= 0.0);
  Alcotest.check Alcotest.bool "log time" true (p.Smalldb.log_s >= 0.0);
  Alcotest.check Alcotest.bool "ckpt pickle time" true (p.Smalldb.ckpt_pickle_s >= 0.0);
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  let p2 = (KVDb.stats db2).Smalldb.phase in
  Alcotest.check Alcotest.bool "restore timed" true (p2.Smalldb.restore_s >= 0.0)

(* The span taxonomy is a public interface: exactly these names, in
   this order, from the engine's code paths. *)

module Trace = Sdb_obs.Trace

let with_ring f =
  let ring = Trace.Ring.create ~capacity:64 in
  Trace.set_sink (Some (Trace.Ring.sink ring));
  Fun.protect ~finally:(fun () -> Trace.set_sink None) (fun () -> f ring)

let span_names ring = List.map (fun s -> s.Trace.name) (Trace.Ring.contents ring)

let test_update_span_sequence () =
  let _, _, db = mem_db () in
  with_ring (fun ring ->
      KVDb.update db (KV.Set ("k", "v"));
      check
        (Alcotest.list Alcotest.string)
        "one update, three phase spans"
        [ "update.apply"; "update.log"; "update.notify" ]
        (span_names ring);
      (* Every span carries the application name. *)
      List.iter
        (fun s ->
          check Alcotest.(option string) "app attr" (Some "test-kv")
            (List.assoc_opt "app" s.Trace.attrs))
        (Trace.Ring.contents ring);
      Trace.Ring.clear ring;
      (match KVDb.update_checked db ~precondition:(fun _ -> Ok ()) (KV.Set ("k", "w")) with
      | Ok () -> ()
      | Error () -> fail "checked update refused");
      check
        (Alcotest.list Alcotest.string)
        "a checked update verifies in the fold"
        [ "update.verify"; "update.apply"; "update.log"; "update.notify" ]
        (span_names ring);
      Trace.Ring.clear ring;
      KVDb.checkpoint db;
      check
        (Alcotest.list Alcotest.string)
        "checkpoint span" [ "checkpoint" ] (span_names ring));
  (* Under group commit every update leads or joins a group (a
     leader's join span is the slot wait and linger); a checked one is
     verified in its leader's fold. *)
  let _, _, gdb = mem_db ~config:{ Smalldb.default_config with group_commit = true } () in
  with_ring (fun ring ->
      KVDb.update gdb (KV.Set ("k", "v"));
      check
        (Alcotest.list Alcotest.string)
        "grouped update"
        [ "update.join"; "update.apply"; "update.log"; "update.notify" ]
        (span_names ring);
      Trace.Ring.clear ring;
      (match KVDb.update_checked gdb ~precondition:(fun _ -> Ok ()) (KV.Set ("k", "w")) with
      | Ok () -> ()
      | Error () -> fail "checked update refused");
      check
        (Alcotest.list Alcotest.string)
        "checked update"
        [ "update.join"; "update.verify"; "update.apply"; "update.log"; "update.notify" ]
        (span_names ring))

let test_recovery_spans_after_reopen () =
  let _, fs, db = mem_db () in
  for i = 0 to 4 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.close db;
  with_ring (fun ring ->
      let db2 = KVDb.open_exn fs in
      check
        (Alcotest.list Alcotest.string)
        "recovery spans in phase order"
        [ "recovery.restore"; "recovery.replay" ]
        (span_names ring);
      let replay = List.nth (Trace.Ring.contents ring) 1 in
      check Alcotest.(option string) "replayed count attr" (Some "5")
        (List.assoc_opt "replayed" replay.Trace.attrs);
      KVDb.close db2)

(* ------------------------------------------------------------------ *)
(* Checkpoints beside concurrent updates                                *)

let test_concurrent_checkpoint_basic () =
  let store = Mem.create_store ~seed:71 () in
  let fs = Mem.fs store in
  let db = KVDb.open_exn fs in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  let s = KVDb.stats db in
  check Alcotest.int "generation advanced" 1 s.Smalldb.generation;
  check Alcotest.int "log reset" 0 s.Smalldb.log_entries;
  check Alcotest.int "lsn preserved" 10 s.Smalldb.lsn;
  KVDb.update db (sequenced_update 10);
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "state complete" 11 (KVDb.query db2 Smap.cardinal);
  check Alcotest.int "one replay" 1 (KVDb.stats db2).Smalldb.recovery.Smalldb.replayed

let test_concurrent_checkpoint_carries_tail () =
  (* Updates committed between the snapshot and the switch must land in
     the new generation's log.  We simulate the race deterministically:
     a writer thread runs while the checkpoint pickles a large state. *)
  let store = Mem.create_store ~seed:72 () in
  let fs = Mem.fs store in
  let db = KVDb.open_exn fs in
  (* Large-ish state so phase 2 takes measurable time. *)
  for i = 0 to 4999 do
    KVDb.update db (KV.Set (Printf.sprintf "bulk%05d" i, String.make 40 'x'))
  done;
  let stop = ref false in
  let written = ref 0 in
  let writer =
    Thread.create
      (fun () ->
        while not !stop do
          KVDb.update db (KV.Set (Printf.sprintf "live%06d" !written, "v"));
          incr written;
          Thread.yield ()
        done)
      ()
  in
  for _ = 1 to 3 do
    KVDb.checkpoint db
  done;
  stop := true;
  Thread.join writer;
  let total = 5000 + !written in
  check Alcotest.int "nothing lost in memory" total (KVDb.query db Smap.cardinal);
  check Alcotest.int "lsn" total (KVDb.stats db).Smalldb.lsn;
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "nothing lost on disk" total (KVDb.query db2 Smap.cardinal);
  KVDb.close db2

(* ------------------------------------------------------------------ *)
(* Policy checkpoints on the background domain                          *)

(* A latch in the state codec: once armed, the next pickle of the state
   parks, on whichever domain runs it, until released.  Tests park the
   policy's background pickle with it instead of racing it.  The latch
   is shared, so each test lets every pickle it started finish. *)
module Latch = struct
  let mu = Mutex.create ()
  let cond = Condition.create ()
  let armed = ref false
  let parked = ref false
  let released = ref true

  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

  let arm () =
    locked (fun () ->
        armed := true;
        released := false)

  let release () =
    locked (fun () ->
        released := true;
        Condition.broadcast cond)

  (* Called by the codec: only the first pickle after [arm] parks. *)
  let pass () =
    locked (fun () ->
        if !armed then begin
          armed := false;
          parked := true;
          Condition.broadcast cond;
          while not !released do
            Condition.wait cond mu
          done;
          parked := false
        end)

  let await_parked () =
    locked (fun () ->
        while not !parked do
          Condition.wait cond mu
        done)
end

module ParkKV = struct
  include KV

  let name = "park-kv"

  let codec_state =
    P.conv ~name:"park-kv.state"
      (fun m ->
        Latch.pass ();
        m)
      Fun.id KV.codec_state
end

module ParkDb = Smalldb.Make (ParkKV)

let every n = { Smalldb.default_config with policy = Smalldb.Every_n_updates n }
let pset db i = ParkDb.update db (sequenced_update i)
let pcount db = ParkDb.query db Smap.cardinal
let background db = (ParkDb.stats db).Smalldb.background_checkpoint
let generation db = (ParkDb.stats db).Smalldb.generation

(* The committing updater only spawns the pickle: with it parked,
   updates and enquiries from other threads go on, and the next commit
   after it finishes installs it with the entries committed since its
   snapshot carried over. *)
let test_background_parked_blocks_nothing () =
  let store = Mem.create_store ~seed:81 () in
  let fs = Mem.fs store in
  let db = ParkDb.open_exn ~config:(every 4) fs in
  Latch.arm ();
  for i = 0 to 3 do
    pset db i
  done;
  Latch.await_parked ();
  check Alcotest.bool "pickle parked" true (background db = `Pickling);
  let finished = Atomic.make false in
  let other =
    Thread.create
      (fun () ->
        for i = 4 to 5 do
          pset db i
        done;
        ignore (pcount db : int);
        Atomic.set finished true)
      ()
  in
  await "updates beside a parked pickle" (fun () -> Atomic.get finished);
  Thread.join other;
  check Alcotest.int "all applied" 6 (pcount db);
  check Alcotest.int "nothing installed yet" 0 (generation db);
  Latch.release ();
  await "the pickle to finish" (fun () -> background db = `Ready);
  pset db 6;
  let s = ParkDb.stats db in
  check Alcotest.int "installed by the next commit" 1 s.Smalldb.generation;
  check Alcotest.int "tail since the snapshot carried" 3 s.Smalldb.log_entries;
  check Alcotest.int "lsn" 7 s.Smalldb.lsn;
  check Alcotest.bool "none due, none started" true (s.Smalldb.background_checkpoint = `Idle);
  ParkDb.close db;
  let db2 = ParkDb.open_exn fs in
  check Alcotest.int "nothing lost on disk" 7 (pcount db2);
  ParkDb.close db2

(* The domain never touches the file system: an instance dropped after
   a crash, whose pickle then finishes, leaves the reopened store
   alone. *)
let test_background_crash_then_release () =
  let store = Mem.create_store ~seed:82 () in
  let fs = Mem.fs store in
  let db = ParkDb.open_exn ~config:(every 4) fs in
  Latch.arm ();
  for i = 0 to 5 do
    pset db i
  done;
  Latch.await_parked ();
  Mem.crash store ~mode:Mem.Torn;
  let db2 = ParkDb.open_exn ~config:(every 4) fs in
  let ops = Mem.mutating_ops store in
  Latch.release ();
  await "the dropped instance's pickle" (fun () -> background db = `Ready);
  check Alcotest.int "no file-system operation" ops (Mem.mutating_ops store);
  check Alcotest.int "every acknowledged update" 6 (pcount db2);
  ParkDb.close db2

let test_background_close_while_parked () =
  let store = Mem.create_store ~seed:83 () in
  let fs = Mem.fs store in
  let db = ParkDb.open_exn ~config:(every 4) fs in
  Latch.arm ();
  for i = 0 to 4 do
    pset db i
  done;
  Latch.await_parked ();
  ParkDb.close db;
  let ops = Mem.mutating_ops store in
  Latch.release ();
  await "the abandoned pickle" (fun () -> background db = `Ready);
  check Alcotest.int "abandoned, never installed" ops (Mem.mutating_ops store);
  let db2 = ParkDb.open_exn ~config:(every 4) fs in
  check Alcotest.int "reopens on the old generation" 0 (generation db2);
  check Alcotest.int "every update" 5 (pcount db2);
  ParkDb.close db2

(* A checkpoint that supersedes the policy pickle's generation writes
   one generation and makes the pickle's install drop it, whether the
   pickle is still parked or has finished. *)
let test_background_superseded () =
  List.iter
    (fun (label, parked, supersede) ->
      let store = Mem.create_store ~seed:84 () in
      let fs = Mem.fs store in
      let db = ParkDb.open_exn ~config:(every 4) fs in
      if parked then Latch.arm ();
      for i = 0 to 3 do
        pset db i
      done;
      if parked then Latch.await_parked ()
      else await "the pickle to finish" (fun () -> background db = `Ready);
      supersede store db;
      check Alcotest.int (label ^ ": one new generation") 1 (generation db);
      if parked then begin
        Latch.release ();
        await "the superseded pickle" (fun () -> background db = `Ready)
      end;
      pset db 4;
      let s = ParkDb.stats db in
      check Alcotest.int (label ^ ": pickle dropped") 1 s.Smalldb.generation;
      check Alcotest.int (label ^ ": checkpoints") 1 s.Smalldb.checkpoints_written;
      check Alcotest.bool (label ^ ": slot free") true (background db = `Idle);
      ParkDb.close db;
      let db2 = ParkDb.open_exn fs in
      check Alcotest.int (label ^ ": reopened generation") 1 (generation db2);
      check Alcotest.int (label ^ ": every update") 5 (pcount db2);
      ParkDb.close db2)
    [
      ("checkpoint", true, fun _ db -> ParkDb.checkpoint db);
      ("checkpoint, pickle finished", false, fun _ db -> ParkDb.checkpoint db);
      ( "scrub repair",
        true,
        fun store db ->
          Mem.damage store ~file:(Store.log_file 0) ~offset:0 ~len:1;
          let r = ParkDb.scrub ~repair:true db in
          check Alcotest.bool "repaired" true r.Smalldb.repaired );
    ]

(* The pickle and the install are two spans: the pickle's timestamps
   come from its domain, the install nests in the committing request,
   and the idle wait between them is in neither span nor in the
   phase times. *)
let test_background_spans () =
  let store = Mem.create_store ~seed:85 () in
  let db = ParkDb.open_exn ~config:(every 4) (Mem.fs store) in
  for i = 0 to 3 do
    pset db i
  done;
  await "the pickle to finish" (fun () -> background db = `Ready);
  Thread.delay 0.05;
  let before = (ParkDb.stats db).Smalldb.phase in
  with_ring (fun ring ->
      Trace.with_request "req-7" (fun () -> pset db 4);
      let ckpt =
        List.filter
          (fun s -> String.length s.Trace.name > 10 && String.sub s.Trace.name 0 10 = "checkpoint")
          (Trace.Ring.contents ring)
      in
      check
        (Alcotest.list Alcotest.string)
        "background checkpoint spans" [ "checkpoint.pickle"; "checkpoint.install" ]
        (List.map (fun s -> s.Trace.name) ckpt);
      let pickle = List.nth ckpt 0 and install = List.nth ckpt 1 in
      check Alcotest.(option string) "install in the request" (Some "req-7")
        (List.assoc_opt "req" install.Trace.attrs);
      check Alcotest.bool "idle wait in neither span" true
        (install.Trace.start_s -. (pickle.Trace.start_s +. pickle.Trace.dur_s) >= 0.05);
      let after = (ParkDb.stats db).Smalldb.phase in
      check (Alcotest.float 1e-9) "ckpt_pickle_s is the pickle" pickle.Trace.dur_s
        (after.Smalldb.ckpt_pickle_s -. before.Smalldb.ckpt_pickle_s);
      check (Alcotest.float 1e-9) "ckpt_write_s is the install" install.Trace.dur_s
        (after.Smalldb.ckpt_write_s -. before.Smalldb.ckpt_write_s));
  ParkDb.close db

(* A counter is not idempotent: an update applied twice shows in the
   value, not only in the LSN.  Its state codec passes the latch. *)
module Counter = struct
  type state = int
  type update = int

  let name = "counter"

  let codec_state =
    P.conv ~name:"counter.state"
      (fun n ->
        Latch.pass ();
        n)
      Fun.id P.int

  let codec_update = P.int
  let init () = 0
  let apply s d = s + d
end

module CounterDb = Smalldb.Make (Counter)

(* The policy pickle is parked while two more updates commit, and the
   8th update installs it with the three entries since its snapshot
   carried into the new log.  With the new checkpoint damaged, the
   previous generation stands in: its log still holds that tail, and
   must be replayed only up to the current log's base. *)
let test_fallback_after_carried_tail () =
  let store = Mem.create_store ~seed:87 () in
  let fs = Mem.fs store in
  let config = { (every 5) with retain_previous = true } in
  let db = CounterDb.open_exn ~config fs in
  Latch.arm ();
  for _ = 1 to 5 do
    CounterDb.update db 1
  done;
  Latch.await_parked ();
  for _ = 6 to 7 do
    CounterDb.update db 1
  done;
  Latch.release ();
  await "the pickle to finish" (fun () ->
      (CounterDb.stats db).Smalldb.background_checkpoint = `Ready);
  CounterDb.update db 1;
  let s = CounterDb.stats db in
  check Alcotest.int "installed by the 8th update" 1 s.Smalldb.generation;
  check Alcotest.int "tail carried" 3 s.Smalldb.log_entries;
  CounterDb.close db;
  Mem.damage store ~file:(Store.checkpoint_file 1) ~offset:0 ~len:4;
  let db2 = CounterDb.open_exn ~config fs in
  let s2 = CounterDb.stats db2 in
  check Alcotest.bool "used previous generation" true
    s2.Smalldb.recovery.Smalldb.used_previous_generation;
  check Alcotest.int "lsn: the 8 acknowledged updates" 8 s2.Smalldb.lsn;
  check Alcotest.int "value: each applied once" 8 (CounterDb.query db2 Fun.id);
  CounterDb.close db2

(* With archive_logs, an archived log ends with the tail its successor
   starts with: the history yields each update exactly once.  The
   pickle parks while updates commit beside it on other threads. *)
let test_history_across_carried_tail () =
  let store = Mem.create_store ~seed:88 () in
  let db = ParkDb.open_exn ~config:{ (every 4) with archive_logs = true } (Mem.fs store) in
  let on_thread what f =
    let finished = Atomic.make false in
    let th =
      Thread.create
        (fun () ->
          f ();
          Atomic.set finished true)
        ()
    in
    await what (fun () -> Atomic.get finished);
    Thread.join th
  in
  Latch.arm ();
  on_thread "the updates that start the pickle" (fun () ->
      for i = 0 to 3 do
        pset db i
      done);
  Latch.await_parked ();
  on_thread "updates beside the parked pickle" (fun () ->
      for i = 4 to 5 do
        pset db i
      done);
  Latch.release ();
  await "the pickle to finish" (fun () -> background db = `Ready);
  pset db 6;
  check Alcotest.int "tail carried" 3 (ParkDb.stats db).Smalldb.log_entries;
  pset db 7;
  pset db 8;
  ParkDb.checkpoint db;
  pset db 9;
  (match ParkDb.History.fold db ~init:[] ~f:(fun acc lsn u -> (lsn, u) :: acc) with
  | Error e -> fail e
  | Ok entries ->
    check
      Alcotest.(list int)
      "each lsn exactly once" (List.init 10 Fun.id)
      (List.rev_map fst entries);
    List.iter
      (fun (lsn, u) -> check Alcotest.bool "the update of its lsn" true (u = sequenced_update lsn))
      entries);
  match ParkDb.History.state_at db ~lsn:10 with
  | Error e -> fail e
  | Ok st ->
    check
      Alcotest.(list (pair string string))
      "tip equals live" (ParkDb.query db Smap.bindings) (Smap.bindings st)

(* Gates in the state codec: the policy's pickle (on its own domain)
   and a manual checkpoint's (on the main domain) park at their own
   gate while it is shut.  [explode] makes the policy's pickle raise. *)
module Gate = struct
  type t = { m : Mutex.t; c : Condition.t; mutable shut : bool; mutable parked : bool }

  let make () = { m = Mutex.create (); c = Condition.create (); shut = false; parked = false }

  let locked g f =
    Mutex.lock g.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock g.m) f

  let shut g = locked g (fun () -> g.shut <- true)

  let open_ g =
    locked g (fun () ->
        g.shut <- false;
        Condition.broadcast g.c)

  let pass g =
    locked g (fun () ->
        if g.shut then begin
          g.parked <- true;
          Condition.broadcast g.c;
          while g.shut do
            Condition.wait g.c g.m
          done;
          g.parked <- false
        end)

  let await_parked g =
    locked g (fun () ->
        while not g.parked do
          Condition.wait g.c g.m
        done)

  let policy = make ()
  let manual = make ()
  let explode = Atomic.make false
end

module GateKV = struct
  include KV

  let name = "gate-kv"

  let codec_state =
    P.conv ~name:"gate-kv.state"
      (fun m ->
        if Domain.is_main_domain () then Gate.pass Gate.manual
        else begin
          Gate.pass Gate.policy;
          if Atomic.get Gate.explode then failwith "checkpoint pickler exploded"
        end;
        m)
      Fun.id KV.codec_state
end

module GateDb = Smalldb.Make (GateKV)

(* While another thread holds the checkpoint token (a manual checkpoint
   parked in its pickle), a commit that finds the policy's pickle
   finished leaves it to the holder and returns without waiting.  The
   manual checkpoint supersedes it, and the next commit drops it. *)
let test_background_install_never_waits () =
  let db = GateDb.open_exn ~config:(every 4) (Mem.fs (Mem.create_store ~seed:89 ())) in
  let gset i = GateDb.update db (sequenced_update i) in
  let background () = (GateDb.stats db).Smalldb.background_checkpoint in
  let generation () = (GateDb.stats db).Smalldb.generation in
  Gate.shut Gate.policy;
  Gate.shut Gate.manual;
  Fun.protect
    ~finally:(fun () ->
      Gate.open_ Gate.policy;
      Gate.open_ Gate.manual)
    (fun () ->
      for i = 0 to 3 do
        gset i
      done;
      Gate.await_parked Gate.policy;
      let manual = Thread.create (fun () -> GateDb.checkpoint db) () in
      Gate.await_parked Gate.manual;
      Gate.open_ Gate.policy;
      await "the policy pickle" (fun () -> background () = `Ready);
      let committed = Atomic.make false in
      let committer =
        Thread.create
          (fun () ->
            gset 4;
            Atomic.set committed true)
          ()
      in
      await "a commit beside the held token" (fun () -> Atomic.get committed);
      Thread.join committer;
      check Alcotest.bool "left to the token's holder" true (background () = `Ready);
      check Alcotest.int "nothing installed" 0 (generation ());
      Gate.open_ Gate.manual;
      Thread.join manual);
  check Alcotest.int "the manual checkpoint" 1 (generation ());
  gset 5;
  let s = GateDb.stats db in
  check Alcotest.bool "superseded pickle dropped" true (s.Smalldb.background_checkpoint = `Idle);
  check Alcotest.int "one checkpoint" 1 s.Smalldb.checkpoints_written;
  check Alcotest.int "every update" 6 (GateDb.query db Smap.cardinal);
  GateDb.close db

(* A policy pickle that raises hands its exception to the commit that
   installs it, as a pickle on that thread would; the slot is free
   again and the next checkpoint goes through. *)
let test_background_pickler_raises () =
  let db = GateDb.open_exn ~config:(every 4) (Mem.fs (Mem.create_store ~seed:90 ())) in
  let gset i = GateDb.update db (sequenced_update i) in
  let background () = (GateDb.stats db).Smalldb.background_checkpoint in
  Atomic.set Gate.explode true;
  Fun.protect
    ~finally:(fun () -> Atomic.set Gate.explode false)
    (fun () ->
      for i = 0 to 3 do
        gset i
      done;
      await "the failed pickle" (fun () -> background () = `Ready));
  (match gset 4 with
  | () -> fail "expected the pickler's exception"
  | exception Failure m -> check Alcotest.string "its exception" "checkpoint pickler exploded" m);
  check Alcotest.int "the update committed" 5 (GateDb.query db Smap.cardinal);
  gset 5;
  await "the next pickle" (fun () -> background () = `Ready);
  gset 6;
  check Alcotest.int "installed" 1 (GateDb.stats db).Smalldb.generation;
  GateDb.close db

(* Crash at every disk operation of a checkpoint's hand-over, for each
   of its two callers.  [prepare fs] opens a store and brings it to the
   hand-over it returns; [survivors] reopens the store after a crash
   at the [k]th disk operation and counts the updates it holds, which
   must lie in [lo k, hi]. *)
let test_concurrent_checkpoint_crash_sweep () =
  let sweep ~input ~seed ~prepare ~survivors ~lo ~hi =
    List.iter
      (fun mode ->
        let rec go k any =
          let store = Mem.create_store ~seed:(seed + k) () in
          let fs = Mem.fs store in
          let hand_over = prepare fs in
          let crashed = ref false in
          (try
             Mem.set_crash_after store ~ops:k ~mode;
             hand_over ();
             Mem.disarm_crash store
           with Mem.Crash -> crashed := true);
          Mem.disarm_crash store;
          if !crashed then begin
            let what = Printf.sprintf "%s crash@%d" input k in
            let n = survivors fs what in
            if n < lo k || n > hi then
              fail (Printf.sprintf "%s: %d updates survived, expected %d..%d" what n (lo k) hi);
            go (k + 1) true
          end
          else if not any then fail (input ^ ": sweep never crashed")
        in
        go 1 false)
      [ Mem.Clean; Mem.Torn ]
  in
  sweep ~input:"checkpoint" ~seed:9000 ~lo:(fun _ -> 8) ~hi:8
    ~prepare:(fun fs ->
      let db = KVDb.open_exn fs in
      for i = 0 to 7 do
        KVDb.update db (sequenced_update i)
      done;
      fun () -> KVDb.checkpoint db)
    ~survivors:(fun fs what ->
      match KVDb.open_ fs with
      | Error e -> fail (what ^ ": " ^ e)
      | Ok db2 ->
        let n = KVDb.query db2 Smap.cardinal in
        KVDb.close db2;
        n);
  (* The policy's background pickle, installed by the next commit.  That
     update is durable once its own disk operations are done, and must
     then survive every crash in the install, carried into the new log
     or still in the old one. *)
  let commit_ops =
    let store = Mem.create_store () in
    let db = ParkDb.open_exn (Mem.fs store) in
    let before = Mem.mutating_ops store in
    pset db 0;
    let n = Mem.mutating_ops store - before in
    ParkDb.close db;
    n
  in
  sweep ~input:"policy install" ~seed:9100
    ~lo:(fun k -> if k > commit_ops then 9 else 8)
    ~hi:9
    ~prepare:(fun fs ->
      let db = ParkDb.open_exn ~config:(every 8) fs in
      for i = 0 to 7 do
        pset db i
      done;
      await "the policy pickle" (fun () -> background db = `Ready);
      fun () ->
        pset db 8;
        check Alcotest.int "installed by the commit" 1 (generation db))
    ~survivors:(fun fs what ->
      match ParkDb.open_ fs with
      | Error e -> fail (what ^ ": " ^ e)
      | Ok db2 ->
        let n = pcount db2 in
        ParkDb.close db2;
        n)

(* ------------------------------------------------------------------ *)
(* Real file system integration                                         *)

let test_real_fs_end_to_end () =
  (* The same engine over an actual directory: creation, updates,
     checkpoint (rename-based switch), torn-tail truncation via real
     ftruncate, and recovery. *)
  let fs = Sdb_storage.Real_fs.create ~root:(Helpers.fresh_dir "engine") in
  let db = KVDb.open_exn fs in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  for i = 10 to 14 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "real fs recovery" 15 (sequenced_prefix db2);
  check Alcotest.int "replayed the tail" 5
    (KVDb.stats db2).Smalldb.recovery.Smalldb.replayed;
  (* Chop bytes off the real log to fake a torn tail. *)
  KVDb.update db2 (sequenced_update 15);
  let gen = (KVDb.stats db2).Smalldb.generation in
  KVDb.close db2;
  let log = Store.log_file gen in
  fs.Fs.truncate log (fs.Fs.file_size log - 3);
  let db3 = KVDb.open_exn fs in
  check Alcotest.int "torn tail dropped on real fs" 15 (sequenced_prefix db3);
  Alcotest.check Alcotest.bool "tail discard reported" true
    (KVDb.stats db3).Smalldb.recovery.Smalldb.log_tail_discarded;
  (* And appending resumes cleanly after the real truncation. *)
  KVDb.update db3 (sequenced_update 15);
  KVDb.close db3;
  let db4 = KVDb.open_exn fs in
  check Alcotest.int "resumed" 16 (sequenced_prefix db4);
  KVDb.close db4

(* ------------------------------------------------------------------ *)
(* Concurrency                                                          *)

let test_concurrent_updates_and_queries () =
  let _, _, db = mem_db () in
  let writers =
    List.init 4 (fun w ->
        Thread.create
          (fun () ->
            for i = 0 to 99 do
              KVDb.update db (KV.Set (Printf.sprintf "w%d-%d" w i, string_of_int i))
            done)
          ())
  in
  let reader_errors = ref 0 in
  let readers =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 0 to 200 do
              let n = KVDb.query db Smap.cardinal in
              if n < 0 then incr reader_errors
            done)
          ())
  in
  List.iter Thread.join writers;
  List.iter Thread.join readers;
  check Alcotest.int "no reader errors" 0 !reader_errors;
  check Alcotest.int "all writes applied" 400 (KVDb.query db Smap.cardinal);
  check Alcotest.int "lsn" 400 (KVDb.stats db).Smalldb.lsn

let test_checkpoint_during_concurrent_queries () =
  let _, fs, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  let stop = ref false in
  let reader =
    Thread.create
      (fun () ->
        while not !stop do
          ignore (KVDb.query db Smap.cardinal)
        done)
      ()
  in
  for _ = 1 to 5 do
    KVDb.checkpoint db
  done;
  stop := true;
  Thread.join reader;
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "state intact" 10 (sequenced_prefix db2)

(* ------------------------------------------------------------------ *)
(* Graceful degradation: disk full                                      *)

module Fault = Sdb_storage.Fault_fs

let fault_db () =
  let store = Mem.create_store ~seed:11 () in
  let ctl, ffs = Fault.wrap (Mem.fs store) in
  (store, ctl, ffs, KVDb.open_exn ffs)

let test_disk_full_degrades_and_recovers () =
  let store, _, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  (* Cap the store so tightly that neither an append nor the exit
     checkpoint fits. *)
  Mem.set_capacity store (Some (Mem.total_bytes store + 4));
  (match KVDb.update db (sequenced_update 10) with
  | _ -> fail "expected Degraded"
  | exception Smalldb.Degraded _ -> ());
  (* The refused update failed cleanly: memory still equals disk. *)
  check Alcotest.int "committed prefix intact" 10 (sequenced_prefix db);
  (match KVDb.health db with
  | `Degraded _ -> ()
  | _ -> fail "expected degraded health");
  (* Read-only mode: enquiries are served... *)
  check
    Alcotest.(option string)
    "enquiries served" (Some "v0000") (get db "k0000");
  (* ...a degraded engine can still be scrubbed... *)
  let r = KVDb.scrub db in
  check Alcotest.bool "scrub runs while degraded" true r.Smalldb.replay_consistent;
  (* ...and updates keep being refused (the retry checkpoint cannot
     reclaim enough under this cap either). *)
  Thread.delay 0.03;
  (match KVDb.update db (sequenced_update 10) with
  | _ -> fail "expected Degraded on retry"
  | exception Smalldb.Degraded _ -> ());
  (* Space turns up (operator freed some): once the backoff expires the
     next update first checkpoints — resetting the log is what reclaims
     space — and then commits normally. *)
  Mem.set_capacity store (Some (Mem.total_bytes store + 2048));
  Thread.delay 0.1;
  KVDb.update db (sequenced_update 10);
  check Alcotest.int "auto-recovered" 11 (sequenced_prefix db);
  (match KVDb.health db with
  | `Healthy -> ()
  | _ -> fail "expected healthy after recovery");
  Alcotest.check Alcotest.bool "exit ran a checkpoint" true
    ((KVDb.stats db).Smalldb.generation > 0);
  KVDb.close db

let test_write_fault_rejects_cleanly () =
  let _, ctl, _, db = fault_db () in
  set db "a" "1";
  Fault.fail_nth ctl ~op:`Write ~n:1 ();
  (* The failed append is rolled back (truncated off), so this is a
     pre-commit-point failure: the one update fails, nothing else. *)
  (match set db "b" "2" with
  | _ -> fail "expected Io_error"
  | exception Fs.Io_error _ -> ());
  check Alcotest.(option string) "rejected update absent" None (get db "b");
  (match KVDb.health db with `Healthy -> () | _ -> fail "expected healthy");
  set db "b" "2";
  check Alcotest.(option string) "usable after clean reject" (Some "2") (get db "b")

let test_fsync_fault_poisons () =
  let _, ctl, _, db = fault_db () in
  set db "a" "1";
  Fault.fail_nth ctl ~op:`Sync ~n:1 ();
  (* A failed fsync may have left any prefix durable — the fsyncgate
     rule: never retry it, poison instead. *)
  (match set db "b" "2" with
  | _ -> fail "expected Io_error"
  | exception Fs.Io_error _ -> ());
  (match KVDb.health db with `Poisoned -> () | _ -> fail "expected poisoned");
  (match get db "a" with
  | _ -> fail "expected Poisoned"
  | exception Smalldb.Poisoned -> ())

(* ------------------------------------------------------------------ *)
(* Integrity scrubbing                                                  *)

(* Canonical digest for the KV app: its bindings, in key order. *)
let kv_digest st =
  Smap.bindings st
  |> List.concat_map (fun (k, v) -> [ k; v ])
  |> String.concat "\x00" |> Digest.string

let test_scrub_clean () =
  let _, _, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  KVDb.checkpoint db;
  for i = 10 to 14 do
    KVDb.update db (sequenced_update i)
  done;
  let r = KVDb.scrub ~digest:kv_digest db in
  check Alcotest.int "no findings" 0 (List.length r.Smalldb.findings);
  check Alcotest.bool "replay consistent" true r.Smalldb.replay_consistent;
  check Alcotest.bool "no repair needed" false r.Smalldb.repaired;
  let gen = (KVDb.stats db).Smalldb.generation in
  check Alcotest.bool "scanned the checkpoint" true
    (List.mem (Store.checkpoint_file gen) r.Smalldb.scanned_files);
  check Alcotest.bool "scanned the log" true
    (List.mem (Store.log_file gen) r.Smalldb.scanned_files)

let test_scrub_detects_and_repairs_damage () =
  let store, fs, db = mem_db () in
  for i = 0 to 19 do
    KVDb.update db (sequenced_update i)
  done;
  let gen = (KVDb.stats db).Smalldb.generation in
  let log = Store.log_file gen in
  (* Silently rot one committed entry in the middle of the log. *)
  Mem.damage store ~file:log ~offset:60 ~len:8;
  let r = KVDb.scrub ~digest:kv_digest db in
  check Alcotest.bool "damage found" true (r.Smalldb.findings <> []);
  check Alcotest.bool "file and offset reported" true
    (List.exists
       (fun f ->
         String.equal f.Smalldb.file log
         && f.Smalldb.offset >= 0
         && f.Smalldb.offset <= 60)
       r.Smalldb.findings);
  check Alcotest.bool "replay inconsistent" false r.Smalldb.replay_consistent;
  (* Self-repair: memory is the good copy; a fresh checkpoint restores
     consistency and the damaged generation is dropped. *)
  let r2 = KVDb.scrub ~repair:true ~digest:kv_digest db in
  check Alcotest.bool "repaired" true r2.Smalldb.repaired;
  let r3 = KVDb.scrub ~digest:kv_digest db in
  check Alcotest.int "clean after repair" 0 (List.length r3.Smalldb.findings);
  check Alcotest.bool "consistent after repair" true r3.Smalldb.replay_consistent;
  (* Still updatable, and the repaired store recovers everything. *)
  KVDb.update db (sequenced_update 20);
  KVDb.close db;
  let db2 = KVDb.open_exn fs in
  check Alcotest.int "repaired store recovers" 21 (sequenced_prefix db2);
  KVDb.close db2

(* A well-formed checkpoint of another state, as the engine writes them:
   its metadata (application name, base LSN) paired with the state. *)
let codec_checkpoint =
  P.pair
    (P.record2 "smalldb.checkpoint_meta"
       (P.field "app" P.string fst)
       (P.field "base_lsn" P.int snd)
       (fun app base_lsn -> (app, base_lsn)))
    KV.codec_state

let test_scrub_digest_mismatch () =
  let _, fs, db = mem_db () in
  for i = 0 to 4 do
    KVDb.update db (sequenced_update i)
  done;
  (* Memory and disk diverge behind the engine's back: every file is
     pristine — the checkpoint a valid one at the right LSN, of a state
     holding one key too many — yet disk no longer replays to the live
     state.  Only the digest cross-check can see this. *)
  Fs.write_file fs (Store.checkpoint_file 0)
    (P.to_string codec_checkpoint ((KV.name, 0), Smap.singleton "sneak" "gremlin"));
  let r = KVDb.scrub ~digest:kv_digest db in
  check Alcotest.bool "whole-state finding" true
    (List.exists (fun f -> f.Smalldb.offset = -1) r.Smalldb.findings);
  check Alcotest.bool "replay inconsistent" false r.Smalldb.replay_consistent;
  (* Without a digest the divergence is invisible — which is exactly
     why the nameserver supplies one. *)
  let r2 = KVDb.scrub db in
  check Alcotest.bool "invisible without digest" true r2.Smalldb.replay_consistent

let test_background_scrubber_repairs () =
  let store, _, db = mem_db () in
  for i = 0 to 9 do
    KVDb.update db (sequenced_update i)
  done;
  let gen = (KVDb.stats db).Smalldb.generation in
  Mem.damage store ~file:(Store.log_file gen) ~offset:40 ~len:4;
  let repairs () =
    Sdb_obs.Metrics.counter_value (Sdb_obs.Metrics.counter "sdb_scrub_repairs_total")
  in
  let repairs0 = repairs () in
  KVDb.start_scrubber ~interval:0.02 ~digest:kv_digest db;
  (match KVDb.start_scrubber ~interval:9. db with
  | _ -> fail "expected Invalid_argument on double start"
  | exception Invalid_argument _ -> ());
  await "the scrubber's repair" (fun () -> repairs () > repairs0);
  let r = KVDb.scrub ~digest:kv_digest db in
  check Alcotest.int "clean after background repair" 0
    (List.length r.Smalldb.findings);
  (* [close] stops the scrubber. *)
  KVDb.close db

let () =
  Helpers.run "core"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "create and query" `Quick test_create_and_query;
          Alcotest.test_case "durability across reopen" `Quick
            test_durability_across_reopen;
          Alcotest.test_case "checkpoint resets log" `Quick test_checkpoint_resets_log;
          Alcotest.test_case "close idempotent" `Quick test_close_then_reopen_idempotent;
          Alcotest.test_case "empty db durable" `Quick
            test_open_empty_fs_is_durable_immediately;
        ] );
      ( "update-protocol",
        [
          Alcotest.test_case "precondition blocks update" `Quick
            test_precondition_blocks_update;
          Alcotest.test_case "precondition passes" `Quick test_precondition_passes;
          Alcotest.test_case "one write one sync" `Quick test_update_is_one_write_one_sync;
          Alcotest.test_case "batch single sync" `Quick test_batch_single_sync;
          Alcotest.test_case "raising apply fails before the commit point" `Quick
            test_raising_apply_fails_before_commit;
          Alcotest.test_case "unappliable log entry is an open error" `Quick
            test_unappliable_log_entry_is_open_error;
          Alcotest.test_case "raising precondition releases lock" `Quick
            test_raising_precondition_releases_lock;
          Alcotest.test_case "raising pickler releases lock" `Quick
            test_raising_pickler_releases_lock;
          Alcotest.test_case "raising pickler in batch" `Quick
            test_raising_pickler_in_batch;
          Alcotest.test_case "raising subscriber after commit" `Quick
            test_raising_subscriber_after_commit;
        ] );
      ( "policies",
        [
          Alcotest.test_case "every n updates" `Quick test_policy_every_n;
          Alcotest.test_case "batch crosses the boundary" `Quick
            test_policy_every_n_batch_crossing;
          Alcotest.test_case "log bytes threshold" `Quick test_policy_log_bytes;
          Alcotest.test_case "manual never auto" `Quick test_manual_policy_never_auto;
        ] );
      ( "audit",
        [ Alcotest.test_case "fold_log and log_suffix" `Quick test_fold_log_audit ] );
      ( "type-safety",
        [
          Alcotest.test_case "foreign app rejected" `Quick test_foreign_app_rejected;
          Alcotest.test_case "imposter name rejected" `Quick
            test_same_wire_different_name_rejected;
        ] );
      ( "hard-errors",
        [
          Alcotest.test_case "checkpoint fallback" `Quick
            test_hard_error_checkpoint_fallback;
          Alcotest.test_case "no retention no fallback" `Quick
            test_hard_error_without_retention_fails;
          Alcotest.test_case "skip damaged log entry" `Quick test_skip_damaged_log_entry;
          Alcotest.test_case "interior log damage refused" `Quick
            test_interior_log_damage_refused;
          Alcotest.test_case "retained fallback after a carried tail" `Quick
            test_fallback_after_carried_tail;
          Alcotest.test_case "log base mismatch refused" `Quick
            test_log_base_mismatch_refused;
        ] );
      ( "history",
        [
          Alcotest.test_case "archive accumulates" `Quick test_archive_accumulates;
          Alcotest.test_case "fold and state_at" `Quick test_history_fold_and_state_at;
          Alcotest.test_case "history with retained previous log" `Quick
            test_history_with_retained_previous;
          Alcotest.test_case "unavailable without archiving" `Quick
            test_history_unavailable_without_archiving;
          Alcotest.test_case "survives crash mid-checkpoint" `Quick
            test_history_survives_crash_mid_checkpoint;
          Alcotest.test_case "history across a carried tail" `Quick
            test_history_across_carried_tail;
          Alcotest.test_case "fold beside a committer" `Quick
            test_history_beside_committer;
          prop_history_prefix;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "phase times" `Quick test_phase_times_accumulate;
          Alcotest.test_case "update span sequence" `Quick test_update_span_sequence;
          Alcotest.test_case "recovery spans after reopen" `Quick
            test_recovery_spans_after_reopen;
        ] );
      ( "concurrent-checkpoint",
        [
          Alcotest.test_case "basic" `Quick test_concurrent_checkpoint_basic;
          Alcotest.test_case "carries concurrent tail" `Quick
            test_concurrent_checkpoint_carries_tail;
          Alcotest.test_case "crash sweep" `Quick
            test_concurrent_checkpoint_crash_sweep;
        ] );
      ( "background-checkpoint",
        [
          Alcotest.test_case "parked pickle blocks nothing" `Quick
            test_background_parked_blocks_nothing;
          Alcotest.test_case "crash then release" `Quick test_background_crash_then_release;
          Alcotest.test_case "close while parked" `Quick test_background_close_while_parked;
          Alcotest.test_case "superseded pickle dropped" `Quick test_background_superseded;
          Alcotest.test_case "pickle and install spans" `Quick test_background_spans;
          Alcotest.test_case "install never waits for the token" `Quick
            test_background_install_never_waits;
          Alcotest.test_case "raising pickler" `Quick test_background_pickler_raises;
        ] );
      ( "real-fs",
        [ Alcotest.test_case "end to end on a directory" `Quick test_real_fs_end_to_end ]
      );
      ( "concurrency",
        [
          Alcotest.test_case "updates and queries" `Quick
            test_concurrent_updates_and_queries;
          Alcotest.test_case "checkpoint during queries" `Quick
            test_checkpoint_during_concurrent_queries;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "disk full degrades and recovers" `Quick
            test_disk_full_degrades_and_recovers;
          Alcotest.test_case "write fault rejects cleanly" `Quick
            test_write_fault_rejects_cleanly;
          Alcotest.test_case "fsync fault poisons" `Quick test_fsync_fault_poisons;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "clean store" `Quick test_scrub_clean;
          Alcotest.test_case "detects and repairs damage" `Quick
            test_scrub_detects_and_repairs_damage;
          Alcotest.test_case "digest catches divergence" `Quick
            test_scrub_digest_mismatch;
          Alcotest.test_case "background scrubber repairs" `Quick
            test_background_scrubber_repairs;
        ] );
    ]
