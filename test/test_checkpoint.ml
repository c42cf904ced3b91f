module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Store = Sdb_checkpoint.Checkpoint_store
module Wal = Sdb_wal.Wal

let check = Alcotest.check
let fp = String.make 16 '\x01'

let mem () =
  let store = Mem.create_store ~seed:21 () in
  (store, Mem.fs store)

(* Install generation [v] with given checkpoint contents: the exact §3
   sequence the engine performs. *)
let install fs ~retain ~old v blob =
  Store.write_checkpoint fs ~version:v blob;
  let w = Wal.Writer.create fs (Store.log_file v) ~fingerprint:fp ~base_lsn:0 in
  Wal.Writer.close w;
  Store.commit fs ~retain_previous:retain ~old_version:old ~new_version:v

let expect_current fs ~retain v =
  match Store.recover fs ~retain_previous:retain with
  | Ok (Some r) ->
    check Alcotest.int "current version" v r.Store.current.Store.version;
    r
  | Ok None -> Alcotest.fail "unexpectedly fresh"
  | Error e -> Alcotest.fail e

let test_fresh () =
  let _, fs = mem () in
  match Store.recover fs ~retain_previous:false with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "expected fresh"
  | Error e -> Alcotest.fail e

let test_quiescent_state () =
  let _, fs = mem () in
  install fs ~retain:false ~old:None 0 "blob0";
  check Alcotest.(list string) "quiescent files"
    [ "checkpoint0"; "logfile0"; "version" ]
    (fs.Fs.list_files ());
  check Alcotest.string "version contents" "0" (Fs.read_file fs "version");
  let r = expect_current fs ~retain:false 0 in
  check Alcotest.string "checkpoint file" "checkpoint0"
    r.Store.current.Store.checkpoint_file;
  check Alcotest.string "log file" "logfile0" r.Store.current.Store.log_file;
  check Alcotest.bool "no switch completed" false r.Store.completed_switch;
  check Alcotest.string "blob intact" "blob0" (Fs.read_file fs "checkpoint0")

let test_switch_removes_old () =
  let _, fs = mem () in
  install fs ~retain:false ~old:None 0 "blob0";
  install fs ~retain:false ~old:(Some 0) 1 "blob1";
  check Alcotest.(list string) "only new generation"
    [ "checkpoint1"; "logfile1"; "version" ]
    (fs.Fs.list_files ());
  check Alcotest.string "version" "1" (Fs.read_file fs "version");
  ignore (expect_current fs ~retain:false 1)

let test_retention_keeps_previous () =
  let _, fs = mem () in
  install fs ~retain:true ~old:None 0 "blob0";
  install fs ~retain:true ~old:(Some 0) 1 "blob1";
  check Alcotest.(list string) "two generations"
    [ "checkpoint0"; "checkpoint1"; "logfile0"; "logfile1"; "version" ]
    (fs.Fs.list_files ());
  (* The generation before the previous one goes away. *)
  install fs ~retain:true ~old:(Some 1) 2 "blob2";
  check Alcotest.(list string) "generations 1 and 2"
    [ "checkpoint1"; "checkpoint2"; "logfile1"; "logfile2"; "version" ]
    (fs.Fs.list_files ());
  let r = expect_current fs ~retain:true 2 in
  match r.Store.previous with
  | Some prev -> check Alcotest.int "previous version" 1 prev.Store.version
  | None -> Alcotest.fail "previous generation missing"

let test_recover_completes_committed_switch () =
  let _, fs = mem () in
  install fs ~retain:false ~old:None 0 "blob0";
  (* Begin a switch to 1 but "crash" right after the commit point:
     newversion written, nothing cleaned up. *)
  Store.write_checkpoint fs ~version:1 "blob1";
  let w = Wal.Writer.create fs (Store.log_file 1) ~fingerprint:fp ~base_lsn:0 in
  Wal.Writer.close w;
  Fs.write_file fs Store.newversion_file "1";
  let r = expect_current fs ~retain:false 1 in
  check Alcotest.bool "completed switch" true r.Store.completed_switch;
  check Alcotest.(list string) "cleaned up"
    [ "checkpoint1"; "logfile1"; "version" ]
    (fs.Fs.list_files ());
  check Alcotest.string "version installed" "1" (Fs.read_file fs "version")

let test_recover_ignores_invalid_newversion () =
  let _, fs = mem () in
  install fs ~retain:false ~old:None 0 "blob0";
  (* Partially written newversion: exists but contains junk. *)
  Fs.write_file fs Store.newversion_file "not-a-number";
  let r = expect_current fs ~retain:false 0 in
  check Alcotest.bool "no switch" false r.Store.completed_switch;
  check Alcotest.bool "newversion removed" false (fs.Fs.exists Store.newversion_file)

let test_recover_ignores_newversion_without_files () =
  let _, fs = mem () in
  install fs ~retain:false ~old:None 0 "blob0";
  (* newversion names a generation whose checkpoint never made it. *)
  Fs.write_file fs Store.newversion_file "1";
  let r = expect_current fs ~retain:false 0 in
  check Alcotest.int "fell back" 0 r.Store.current.Store.version

let test_recover_removes_partial_next_generation () =
  let _, fs = mem () in
  install fs ~retain:false ~old:None 0 "blob0";
  (* Crash mid-checkpoint: checkpoint1 exists (maybe partial), no
     logfile1, no newversion. *)
  Store.write_checkpoint fs ~version:1 "partial";
  ignore (expect_current fs ~retain:false 0);
  check Alcotest.bool "partial removed" false (fs.Fs.exists "checkpoint1")

let test_recover_removes_stale_old_generations () =
  let _, fs = mem () in
  install fs ~retain:false ~old:None 0 "blob0";
  (* Leftovers that cleanup missed (e.g. crash during deletes). *)
  Fs.write_file fs "checkpoint7" "blob7";
  let w = Wal.Writer.create fs "logfile7" ~fingerprint:fp ~base_lsn:0 in
  Wal.Writer.close w;
  Fs.write_file fs Store.version_file "7";
  (* Now 7 is current; 0 is stale. *)
  ignore (expect_current fs ~retain:false 7);
  check Alcotest.bool "stale checkpoint removed" false (fs.Fs.exists "checkpoint0");
  check Alcotest.bool "stale log removed" false (fs.Fs.exists "logfile0")

let test_recover_corrupt_version_files () =
  (* A junk version file with real generations present: refuse rather
     than guess or delete. *)
  let _, fs = mem () in
  install fs ~retain:false ~old:None 0 "blob0";
  Fs.write_file fs Store.version_file "junk";
  (match Store.recover fs ~retain_previous:false with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected corrupt-store error");
  check Alcotest.bool "data preserved" true (fs.Fs.exists "checkpoint0");
  (* A junk version file alone (nothing to lose): fresh after cleanup. *)
  let _, fs2 = mem () in
  Fs.write_file fs2 Store.version_file "junk";
  match Store.recover fs2 ~retain_previous:false with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "expected fresh"
  | Error e -> Alcotest.fail e

let test_recover_crashed_first_init () =
  let _, fs = mem () in
  (* Crash during the very first init: checkpoint0 exists, no version
     file at all.  Treated as fresh after cleanup. *)
  Store.write_checkpoint fs ~version:0 "blob0";
  (match Store.recover fs ~retain_previous:false with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "expected fresh"
  | Error e -> Alcotest.fail e);
  check Alcotest.(list string) "cleaned" [] (fs.Fs.list_files ())

let test_commit_preconditions () =
  let _, fs = mem () in
  Alcotest.check_raises "missing checkpoint"
    (Invalid_argument "Checkpoint_store.commit: new checkpoint missing") (fun () ->
      Store.commit fs ~retain_previous:false ~old_version:None ~new_version:0)

let test_foreign_files_untouched () =
  let _, fs = mem () in
  Fs.write_file fs "README" "hello";
  install fs ~retain:false ~old:None 0 "blob0";
  install fs ~retain:false ~old:(Some 0) 1 "blob1";
  ignore (expect_current fs ~retain:false 1);
  check Alcotest.bool "foreign file kept" true (fs.Fs.exists "README")

let test_disk_files () =
  let _, fs = mem () in
  install fs ~retain:false ~old:None 0 "four" ;
  let files = Store.disk_files fs in
  check Alcotest.bool "has checkpoint0" true
    (List.exists (fun (n, s) -> n = "checkpoint0" && s = 4) files)

(* Crash sweep over the whole install sequence: at every mutating-op
   crash point, recovery must land on generation 0 or generation 1,
   never in between, and the chosen checkpoint must be intact. *)
let test_commit_crash_sweep () =
  let mode_list = [ Mem.Clean; Mem.Torn ] in
  List.iter
    (fun mode ->
      let rec sweep k tested_any =
        let store = Mem.create_store ~seed:(100 + k) () in
        let fs = Mem.fs store in
        install fs ~retain:false ~old:None 0 "generation-zero";
        let crashed = ref false in
        (try
           Mem.set_crash_after store ~ops:k ~mode;
           install fs ~retain:false ~old:(Some 0) 1 "generation-one";
           Mem.disarm_crash store
         with Mem.Crash -> crashed := true);
        if !crashed then begin
          (match Store.recover fs ~retain_previous:false with
          | Error e -> Alcotest.fail (Printf.sprintf "crash point %d: %s" k e)
          | Ok None -> Alcotest.fail (Printf.sprintf "crash point %d: store vanished" k)
          | Ok (Some r) ->
            let v = r.Store.current.Store.version in
            if v <> 0 && v <> 1 then
              Alcotest.fail (Printf.sprintf "crash point %d: version %d" k v);
            let blob = Fs.read_file fs r.Store.current.Store.checkpoint_file in
            let expected = if v = 0 then "generation-zero" else "generation-one" in
            check Alcotest.string (Printf.sprintf "crash point %d blob" k) expected blob);
          sweep (k + 1) true
        end
        else if not tested_any then Alcotest.fail "sweep never crashed"
      in
      sweep 1 false)
    mode_list

let () =
  Helpers.run "checkpoint"
    [
      ( "protocol",
        [
          Alcotest.test_case "fresh store" `Quick test_fresh;
          Alcotest.test_case "quiescent state" `Quick test_quiescent_state;
          Alcotest.test_case "switch removes old" `Quick test_switch_removes_old;
          Alcotest.test_case "retention keeps previous" `Quick
            test_retention_keeps_previous;
          Alcotest.test_case "commit preconditions" `Quick test_commit_preconditions;
          Alcotest.test_case "disk files" `Quick test_disk_files;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "completes committed switch" `Quick
            test_recover_completes_committed_switch;
          Alcotest.test_case "ignores invalid newversion" `Quick
            test_recover_ignores_invalid_newversion;
          Alcotest.test_case "ignores newversion without files" `Quick
            test_recover_ignores_newversion_without_files;
          Alcotest.test_case "removes partial next generation" `Quick
            test_recover_removes_partial_next_generation;
          Alcotest.test_case "removes stale old generations" `Quick
            test_recover_removes_stale_old_generations;
          Alcotest.test_case "corrupt version files" `Quick
            test_recover_corrupt_version_files;
          Alcotest.test_case "crashed first init" `Quick test_recover_crashed_first_init;
          Alcotest.test_case "foreign files untouched" `Quick test_foreign_files_untouched;
          Alcotest.test_case "crash sweep over commit" `Quick test_commit_crash_sweep;
        ] );
    ]
