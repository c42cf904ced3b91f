module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Real = Sdb_storage.Real_fs

let check = Alcotest.check

let mem () =
  let store = Mem.create_store ~seed:99 () in
  (store, Mem.fs store)

let write fs name contents = Fs.write_file fs name contents
let read fs name = Fs.read_file fs name

(* ------------------------------------------------------------------ *)
(* Basic file operations (exercised on both backends)                  *)

let basic_suite make_fs () =
  let fs = make_fs () in
  check Alcotest.(list string) "empty listing" [] (fs.Fs.list_files ());
  write fs "a.txt" "hello";
  write fs "b.txt" "world";
  check Alcotest.(list string) "listing" [ "a.txt"; "b.txt" ] (fs.Fs.list_files ());
  check Alcotest.bool "exists" true (fs.Fs.exists "a.txt");
  check Alcotest.bool "not exists" false (fs.Fs.exists "c.txt");
  check Alcotest.int "size" 5 (fs.Fs.file_size "a.txt");
  check Alcotest.string "read back" "hello" (read fs "a.txt");
  (* Append. *)
  let w = fs.Fs.open_append "a.txt" in
  w.Fs.w_write " again";
  w.Fs.w_sync ();
  w.Fs.w_close ();
  check Alcotest.string "appended" "hello again" (read fs "a.txt");
  (* Create truncates. *)
  write fs "a.txt" "fresh";
  check Alcotest.string "truncated" "fresh" (read fs "a.txt");
  (* Rename replaces. *)
  fs.Fs.rename "a.txt" "b.txt";
  check Alcotest.bool "source gone" false (fs.Fs.exists "a.txt");
  check Alcotest.string "dest replaced" "fresh" (read fs "b.txt");
  (* Remove is idempotent. *)
  fs.Fs.remove "b.txt";
  fs.Fs.remove "b.txt";
  check Alcotest.bool "removed" false (fs.Fs.exists "b.txt");
  (* Truncate. *)
  write fs "t.bin" "0123456789";
  fs.Fs.truncate "t.bin" 4;
  check Alcotest.string "truncated file" "0123" (read fs "t.bin");
  (* Missing files error. *)
  (match fs.Fs.open_reader "nope" with
  | _ -> Alcotest.fail "expected Io_error"
  | exception Fs.Io_error _ -> ());
  (* Sequential reader with seek. *)
  write fs "seq.bin" "abcdefghij";
  let r = fs.Fs.open_reader "seq.bin" in
  let buf = Bytes.create 4 in
  let n = r.Fs.r_read buf 0 4 in
  check Alcotest.int "read 4" 4 n;
  check Alcotest.string "first chunk" "abcd" (Bytes.sub_string buf 0 4);
  r.Fs.r_seek 8;
  let n = r.Fs.r_read buf 0 4 in
  check Alcotest.int "read tail" 2 n;
  check Alcotest.string "tail" "ij" (Bytes.sub_string buf 0 2);
  check Alcotest.int "eof" 0 (r.Fs.r_read buf 0 4);
  r.Fs.r_close ();
  (* Random access handle. *)
  let h = fs.Fs.open_random "rand.bin" in
  h.Fs.pwrite ~off:0 "AAAABBBB";
  h.Fs.pwrite ~off:4 "XXXX";
  h.Fs.rw_sync ();
  check Alcotest.int "rw size" 8 (h.Fs.rw_size ());
  let buf = Bytes.create 8 in
  let n = h.Fs.pread ~off:0 buf 0 8 in
  check Alcotest.int "pread" 8 n;
  check Alcotest.string "overwritten" "AAAAXXXX" (Bytes.sub_string buf 0 8);
  (* pwrite beyond EOF zero-fills. *)
  h.Fs.pwrite ~off:12 "ZZ";
  let buf = Bytes.create 14 in
  let n = h.Fs.pread ~off:0 buf 0 14 in
  check Alcotest.int "extended size" 14 n;
  check Alcotest.string "gap zero-filled" "AAAAXXXX\x00\x00\x00\x00ZZ"
    (Bytes.sub_string buf 0 14);
  h.Fs.rw_close ()

let test_mem_basic () = basic_suite (fun () -> snd (mem ())) ()

let test_real_basic () =
  basic_suite (fun () -> Real.create ~root:(Helpers.fresh_dir "realfs")) ()

let test_real_reject_paths () =
  let fs = Real.create ~root:(Helpers.fresh_dir "realfs-sec") in
  match fs.Fs.create "../escape" with
  | _ -> Alcotest.fail "expected Io_error"
  | exception Fs.Io_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Prefixed views                                                      *)

let sorted_files fs = List.sort compare (fs.Fs.list_files ())

(* The whole basic suite runs inside a view; every name outside the
   prefix — including the very names the suite renames and removes —
   is left exactly as it was. *)
let test_prefixed_stays_inside () =
  let _, fs = mem () in
  let outside = [ ("a.txt", "A"); ("b.txt", "B"); ("p0.b.txt", "P0"); ("p1x", "X") ] in
  List.iter (fun (name, contents) -> write fs name contents) outside;
  basic_suite (fun () -> Fs.prefixed fs "p1.") ();
  List.iter
    (fun (name, contents) -> check Alcotest.string ("untouched " ^ name) contents (read fs name))
    outside;
  check Alcotest.(list string) "the view's files carry the prefix"
    [ "a.txt"; "b.txt"; "p0.b.txt"; "p1.rand.bin"; "p1.seq.bin"; "p1.t.bin"; "p1x" ]
    (sorted_files fs);
  check Alcotest.(list string) "listing strips the prefix"
    [ "rand.bin"; "seq.bin"; "t.bin" ]
    (sorted_files (Fs.prefixed fs "p1."))

(* A fresh engine deletes every file its view lists (an uncommitted
   store's leftovers), so only the filtering keeps a neighbour alive. *)
let test_prefixed_engines_share_a_directory () =
  let _, fs = mem () in
  let p0 = Helpers.KVDb.open_exn (Fs.prefixed fs "p0.") in
  Helpers.KVDb.update p0 (Helpers.KV.Set ("k", "zero"));
  Helpers.KVDb.close p0;
  let p0_files = List.map (fun name -> (name, read fs name)) (sorted_files fs) in
  write fs "p1.leftover" "from a crashed creation";
  let p1 = Helpers.KVDb.open_exn (Fs.prefixed fs "p1.") in
  check Alcotest.bool "own leftover removed" false (fs.Fs.exists "p1.leftover");
  Helpers.KVDb.update p1 (Helpers.KV.Set ("k", "one"));
  Helpers.KVDb.close p1;
  List.iter
    (fun (name, contents) -> check Alcotest.string ("intact " ^ name) contents (read fs name))
    p0_files;
  let get prefix =
    let db = Helpers.KVDb.open_exn (Fs.prefixed fs prefix) in
    let v = Helpers.KVDb.query db (Helpers.Smap.find_opt "k") in
    Helpers.KVDb.close db;
    v
  in
  check Alcotest.(option string) "p0" (Some "zero") (get "p0.");
  check Alcotest.(option string) "p1" (Some "one") (get "p1.")

let test_prefixed_real_durability () =
  let root = Helpers.fresh_dir "prefixed" in
  let db = Helpers.KVDb.open_exn (Fs.prefixed (Real.create ~root) "p2.") in
  Helpers.KVDb.update db (Helpers.KV.Set ("k", "v"));
  Helpers.KVDb.close db;
  Array.iter
    (fun name ->
      check Alcotest.bool ("prefixed on disk: " ^ name) true
        (String.starts_with ~prefix:"p2." name))
    (Sys.readdir root);
  let db = Helpers.KVDb.open_exn (Fs.prefixed (Real.create ~root) "p2.") in
  check Alcotest.(option string) "survives reopen" (Some "v")
    (Helpers.KVDb.query db (Helpers.Smap.find_opt "k"));
  Helpers.KVDb.close db

(* ------------------------------------------------------------------ *)
(* Crash semantics (mem only)                                          *)

let test_clean_crash_drops_unsynced () =
  let store, fs = mem () in
  let w = fs.Fs.create "f" in
  w.Fs.w_write "synced";
  w.Fs.w_sync ();
  w.Fs.w_write "volatile";
  Mem.crash store ~mode:Mem.Clean;
  check Alcotest.string "only synced survives" "synced" (read fs "f");
  (* Old handle unusable, new handles fine. *)
  (match w.Fs.w_write "more" with
  | _ -> Alcotest.fail "expected Io_error on stale handle"
  | exception Fs.Io_error _ -> ());
  let w2 = fs.Fs.open_append "f" in
  w2.Fs.w_write "!";
  w2.Fs.w_sync ();
  check Alcotest.string "writable after crash" "synced!" (read fs "f")

let test_clean_crash_restores_inplace () =
  let store, fs = mem () in
  let h = fs.Fs.open_random "f" in
  h.Fs.pwrite ~off:0 "AAAABBBBCCCC";
  h.Fs.rw_sync ();
  h.Fs.pwrite ~off:4 "XXXX";
  Mem.crash store ~mode:Mem.Clean;
  check Alcotest.string "in-place write reverted" "AAAABBBBCCCC" (read fs "f")

let test_synced_survives_torn () =
  (* Whatever the page fates, fsynced bytes that were never rewritten
     must survive any crash. *)
  for seed = 1 to 30 do
    let store = Mem.create_store ~seed () in
    let fs = Mem.fs store in
    let w = fs.Fs.create "f" in
    let stable = String.init 2000 (fun i -> Char.chr (65 + (i mod 26))) in
    w.Fs.w_write stable;
    w.Fs.w_sync ();
    w.Fs.w_write (String.make 3000 '!');
    Mem.crash store ~mode:Mem.Torn;
    let r = fs.Fs.open_reader "f" in
    let buf = Bytes.create 2000 in
    let rec fill got =
      if got < 2000 then begin
        let n = r.Fs.r_read buf got (2000 - got) in
        if n = 0 then Alcotest.fail "synced prefix truncated";
        fill (got + n)
      end
    in
    (try fill 0
     with Fs.Read_error _ -> Alcotest.fail "synced prefix damaged");
    check Alcotest.string
      (Printf.sprintf "seed %d: synced prefix intact" seed)
      stable (Bytes.sub_string buf 0 2000);
    r.Fs.r_close ()
  done

let test_torn_crash_outcomes () =
  (* Across seeds, the volatile tail must show all three outcomes:
     fully persisted, fully dropped, and torn (read error). *)
  let persisted = ref 0 and dropped = ref 0 and torn = ref 0 in
  for seed = 1 to 60 do
    let store = Mem.create_store ~seed () in
    let fs = Mem.fs store in
    let w = fs.Fs.create "f" in
    w.Fs.w_write "stable";
    w.Fs.w_sync ();
    w.Fs.w_write (String.make 600 'v');
    (* < 2 pages *)
    Mem.crash store ~mode:Mem.Torn;
    let size = fs.Fs.file_size "f" in
    match read fs "f" with
    | contents ->
      if String.length contents > 6 then incr persisted
      else if size = 6 then incr dropped
    | exception Fs.Read_error _ -> incr torn
  done;
  Alcotest.check Alcotest.bool
    (Printf.sprintf "all outcomes seen (p=%d d=%d t=%d)" !persisted !dropped !torn)
    true
    (!persisted > 0 && !dropped > 0 && !torn > 0)

let test_crash_budget () =
  let store, fs = mem () in
  Mem.set_crash_after store ~ops:3 ~mode:Mem.Clean;
  let w = fs.Fs.create "f" in
  (* op 1 *)
  w.Fs.w_write "one";
  (* op 2 *)
  match w.Fs.w_sync () (* op 3: crashes before the sync applies *) with
  | _ -> Alcotest.fail "expected Crash"
  | exception Mem.Crash ->
    (* The sync never happened, so the write is gone. *)
    check Alcotest.int "unsynced write lost" 0 (fs.Fs.file_size "f");
    (* Budget disarmed after firing. *)
    let w2 = fs.Fs.open_append "f" in
    w2.Fs.w_write "x";
    w2.Fs.w_sync ();
    check Alcotest.int "usable after crash" 1 (fs.Fs.file_size "f")

let test_damage_and_heal () =
  let store, fs = mem () in
  write fs "f" (String.make 100 'd');
  Mem.damage store ~file:"f" ~offset:40 ~len:10;
  let r = fs.Fs.open_reader "f" in
  let buf = Bytes.create 100 in
  (* Reads stop short of the damage... *)
  let n = r.Fs.r_read buf 0 100 in
  check Alcotest.int "stops at damage" 40 n;
  (* ...and error when positioned on it. *)
  (match r.Fs.r_read buf 0 10 with
  | _ -> Alcotest.fail "expected Read_error"
  | exception Fs.Read_error { offset; _ } -> check Alcotest.int "error offset" 40 offset);
  (* Seek past the damage reads the tail. *)
  r.Fs.r_seek 50;
  let n = r.Fs.r_read buf 0 100 in
  check Alcotest.int "tail readable" 50 n;
  r.Fs.r_close ();
  (* Overwriting damaged bytes heals them. *)
  let h = fs.Fs.open_random "f" in
  h.Fs.pwrite ~off:40 (String.make 10 'h');
  h.Fs.rw_sync ();
  h.Fs.rw_close ();
  check Alcotest.int "healed" 100 (String.length (read fs "f"))

(* ------------------------------------------------------------------ *)
(* Capacity budget (mem)                                               *)

let test_mem_capacity () =
  let store, fs = mem () in
  write fs "a" (String.make 80 'a');
  Mem.set_capacity store (Some 100);
  (* Within budget. *)
  let w = fs.Fs.open_append "a" in
  w.Fs.w_write (String.make 20 'b');
  w.Fs.w_sync ();
  (* Over budget: all-or-nothing — the file must be untouched. *)
  (match w.Fs.w_write "x" with
  | _ -> Alcotest.fail "expected No_space"
  | exception Fs.No_space { file; needed; available } ->
    check Alcotest.string "file" "a" file;
    check Alcotest.int "needed" 1 needed;
    check Alcotest.int "available" 0 available);
  check Alcotest.int "file unchanged" 100 (fs.Fs.file_size "a");
  (* Overwrites that do not grow the file still fit. *)
  let h = fs.Fs.open_random "a" in
  h.Fs.pwrite ~off:0 "ZZZZ";
  (match h.Fs.pwrite ~off:98 "1234" with
  | _ -> Alcotest.fail "expected No_space"
  | exception Fs.No_space { needed; _ } -> check Alcotest.int "growth" 2 needed);
  check Alcotest.int "still 100 bytes" 100 (fs.Fs.file_size "a");
  h.Fs.rw_close ();
  w.Fs.w_close ();
  (* Lifting the cap unblocks. *)
  Mem.set_capacity store None;
  let w = fs.Fs.open_append "a" in
  w.Fs.w_write "more";
  w.Fs.w_close ();
  check Alcotest.int "cap lifted" 104 (fs.Fs.file_size "a")

(* ------------------------------------------------------------------ *)
(* Fault-injecting decorator                                           *)

module Fault = Sdb_storage.Fault_fs

let fault_mem ?seed () =
  let store = Mem.create_store ~seed:7 () in
  let ctl, fs = Fault.wrap ?seed (Mem.fs store) in
  (store, ctl, fs)

let test_fault_fail_nth_write () =
  let _store, ctl, fs = fault_mem () in
  let w = fs.Fs.create "f" in
  w.Fs.w_write "one";
  (* writes seen so far: 1.  Fail the next one, permanently-flavoured. *)
  Fault.fail_nth ctl ~op:`Write ~n:1 ();
  (match w.Fs.w_write "two" with
  | _ -> Alcotest.fail "expected Io_error"
  | exception Fs.Io_error { op; file; errno; _ } ->
    check Alcotest.string "op" "write" op;
    check Alcotest.(option string) "file" (Some "f") file;
    check Alcotest.bool "errno EIO" true (errno = Some Unix.EIO);
    check Alcotest.bool "permanent" false
      (match errno with Some e -> Fs.errno_transient e | None -> false));
  (* The faulted write never reached the store. *)
  w.Fs.w_write "three";
  w.Fs.w_sync ();
  w.Fs.w_close ();
  check Alcotest.string "fault was all-or-nothing" "onethree" (read fs "f");
  check Alcotest.int "one injected" 1 (Fault.injected ctl)

let test_fault_transient_errno () =
  let _store, ctl, fs = fault_mem () in
  let w = fs.Fs.create "f" in
  Fault.fail_nth ctl ~op:`Sync ~n:1 ~errno:Unix.EINTR ();
  (match w.Fs.w_sync () with
  | _ -> Alcotest.fail "expected Io_error"
  | exception Fs.Io_error { op; errno; _ } ->
    check Alcotest.string "op" "fsync" op;
    check Alcotest.bool "transient" true
      (match errno with Some e -> Fs.errno_transient e | None -> false));
  (* A retry succeeds: the fault was one-shot. *)
  w.Fs.w_write "x";
  w.Fs.w_sync ();
  w.Fs.w_close ()

let test_fault_read () =
  let _store, ctl, fs = fault_mem () in
  write fs "f" "0123456789";
  Fault.fail_nth ctl ~op:`Read ~n:2 ();
  let r = fs.Fs.open_reader "f" in
  let buf = Bytes.create 4 in
  ignore (r.Fs.r_read buf 0 4);
  (match r.Fs.r_read buf 0 4 with
  | _ -> Alcotest.fail "expected Read_error"
  | exception Fs.Read_error { file; _ } -> check Alcotest.string "file" "f" file);
  (* Reads past the one-shot fault work again. *)
  ignore (r.Fs.r_read buf 0 4);
  r.Fs.r_close ()

let test_fault_count_and_ops () =
  let _store, ctl, fs = fault_mem () in
  let w = fs.Fs.create "f" in
  Fault.fail_nth ctl ~op:`Write ~n:2 ~count:2 ();
  w.Fs.w_write "a";
  (* 1: ok *)
  (match w.Fs.w_write "b" with
  | _ -> Alcotest.fail "expected fault 1"
  | exception Fs.Io_error _ -> ());
  (match w.Fs.w_write "c" with
  | _ -> Alcotest.fail "expected fault 2"
  | exception Fs.Io_error _ -> ());
  w.Fs.w_write "d";
  w.Fs.w_close ();
  check Alcotest.int "writes counted" 4 (Fault.ops ctl ~op:`Write);
  check Alcotest.int "two injected" 2 (Fault.injected ctl)

let test_fault_rate_deterministic () =
  (* rate 1.0 always fails; rate 0.0 never; same seed, same choices. *)
  let _store, ctl, fs = fault_mem ~seed:42 () in
  let w = fs.Fs.create "f" in
  Fault.set_fault_rate ctl ~op:`Write 1.0;
  (match w.Fs.w_write "x" with
  | _ -> Alcotest.fail "expected rate fault"
  | exception Fs.Io_error _ -> ());
  Fault.set_fault_rate ctl ~op:`Write 0.0;
  w.Fs.w_write "y";
  Fault.clear ctl;
  w.Fs.w_sync ();
  w.Fs.w_close ();
  check Alcotest.string "only unfaulted writes landed" "y" (read fs "f")

let test_fault_capacity () =
  let _store, ctl, fs = fault_mem () in
  write fs "a" (String.make 90 'a');
  Fault.set_capacity ctl (Some 100);
  let w = fs.Fs.open_append "a" in
  w.Fs.w_write (String.make 10 'b');
  (match w.Fs.w_write "!" with
  | _ -> Alcotest.fail "expected No_space"
  | exception Fs.No_space { file; needed; available } ->
    check Alcotest.string "file" "a" file;
    check Alcotest.int "needed" 1 needed;
    check Alcotest.int "available" 0 available);
  w.Fs.w_sync ();
  w.Fs.w_close ();
  check Alcotest.int "all-or-nothing" 100 (fs.Fs.file_size "a");
  Fault.set_capacity ctl None;
  let w = fs.Fs.open_append "a" in
  w.Fs.w_write "ok";
  w.Fs.w_close ()

let test_counters () =
  let _store, fs = mem () in
  Fs.Counters.reset fs.Fs.counters;
  write fs "f" "12345";
  (* create: 1 create, 1 write, 1 sync *)
  check Alcotest.int "creates" 1 fs.Fs.counters.Fs.Counters.creates;
  check Alcotest.int "writes" 1 fs.Fs.counters.Fs.Counters.data_writes;
  check Alcotest.int "syncs" 1 fs.Fs.counters.Fs.Counters.syncs;
  check Alcotest.int "bytes" 5 fs.Fs.counters.Fs.Counters.bytes_written;
  ignore (read fs "f");
  Alcotest.check Alcotest.bool "reads counted" true
    (fs.Fs.counters.Fs.Counters.bytes_read >= 5);
  let before = Fs.Counters.copy fs.Fs.counters in
  write fs "g" "xy";
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "diff bytes" 2 d.Fs.Counters.bytes_written

let test_total_bytes_and_names () =
  let store, fs = mem () in
  write fs "a" "123";
  write fs "b" "4567";
  check Alcotest.int "total" 7 (Mem.total_bytes store);
  check Alcotest.(list string) "names" [ "a"; "b" ] (Mem.file_names store)

(* Crash during a multi-page in-place overwrite can destroy old data:
   the ad-hoc fragility the baselines depend on being real. *)
let test_inplace_overwrite_at_risk () =
  let vulnerable = ref 0 in
  for seed = 100 to 160 do
    let store = Mem.create_store ~seed () in
    let fs = Mem.fs store in
    let h = fs.Fs.open_random "f" in
    h.Fs.pwrite ~off:0 (String.make 1024 'O');
    h.Fs.rw_sync ();
    (* Overwrite the same pages, then crash mid-flight. *)
    h.Fs.pwrite ~off:0 (String.make 1024 'N');
    Mem.crash store ~mode:Mem.Torn;
    match read fs "f" with
    | contents ->
      (* Mixed old/new pages count as visible corruption for a format
         that assumed the overwrite was atomic. *)
      let has_old = String.contains contents 'O' in
      let has_new = String.contains contents 'N' in
      if has_old && has_new then incr vulnerable
    | exception Fs.Read_error _ -> incr vulnerable
  done;
  Alcotest.check Alcotest.bool
    (Printf.sprintf "in-place overwrites vulnerable (%d/61)" !vulnerable)
    true (!vulnerable > 0)

(* [read_file] reads into one buffer of the size the file had when it
   was opened; a file resized between the open and the reads is still
   read to its end. *)
let test_read_file_resized () =
  let _, fs = mem () in
  let big = String.init 200_000 (fun i -> Char.chr (i land 0xFF)) in
  write fs "big" big;
  check Alcotest.string "several pages" big (read fs "big");
  write fs "empty" "";
  check Alcotest.string "empty" "" (read fs "empty");
  let after_open change =
    {
      fs with
      Fs.open_reader =
        (fun file ->
          let r = fs.Fs.open_reader file in
          change file;
          r);
    }
  in
  write fs "f" "abc";
  let grow file =
    let w = fs.Fs.open_append file in
    w.Fs.w_write (String.make 5000 'd');
    w.Fs.w_close ()
  in
  check Alcotest.string "grown" ("abc" ^ String.make 5000 'd') (read (after_open grow) "f");
  check Alcotest.string "shrunk" "abc" (read (after_open (fun file -> fs.Fs.truncate file 3)) "f")

let () =
  Helpers.run "storage"
    [
      ( "basics",
        [
          Alcotest.test_case "mem backend" `Quick test_mem_basic;
          Alcotest.test_case "real backend" `Quick test_real_basic;
          Alcotest.test_case "real rejects path escape" `Quick test_real_reject_paths;
          Alcotest.test_case "read_file of a resized file" `Quick test_read_file_resized;
        ] );
      ( "prefixed",
        [
          Alcotest.test_case "operations stay inside the prefix" `Quick
            test_prefixed_stays_inside;
          Alcotest.test_case "engines share a directory" `Quick
            test_prefixed_engines_share_a_directory;
          Alcotest.test_case "real backend durability" `Quick
            test_prefixed_real_durability;
        ] );
      ( "crash",
        [
          Alcotest.test_case "clean crash drops unsynced" `Quick
            test_clean_crash_drops_unsynced;
          Alcotest.test_case "clean crash restores in-place" `Quick
            test_clean_crash_restores_inplace;
          Alcotest.test_case "synced bytes survive torn crash" `Quick
            test_synced_survives_torn;
          Alcotest.test_case "torn crash shows all outcomes" `Quick
            test_torn_crash_outcomes;
          Alcotest.test_case "crash budget" `Quick test_crash_budget;
          Alcotest.test_case "in-place overwrite at risk" `Quick
            test_inplace_overwrite_at_risk;
        ] );
      ( "faults",
        [
          Alcotest.test_case "damage and heal" `Quick test_damage_and_heal;
          Alcotest.test_case "mem capacity budget" `Quick test_mem_capacity;
          Alcotest.test_case "fault_fs fail_nth write" `Quick
            test_fault_fail_nth_write;
          Alcotest.test_case "fault_fs transient errno" `Quick
            test_fault_transient_errno;
          Alcotest.test_case "fault_fs read fault" `Quick test_fault_read;
          Alcotest.test_case "fault_fs count and ops" `Quick
            test_fault_count_and_ops;
          Alcotest.test_case "fault_fs rate deterministic" `Quick
            test_fault_rate_deterministic;
          Alcotest.test_case "fault_fs capacity budget" `Quick
            test_fault_capacity;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "total bytes and names" `Quick test_total_bytes_and_names;
        ] );
    ]
