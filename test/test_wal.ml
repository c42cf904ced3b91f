module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Wal = Sdb_wal.Wal

let check = Alcotest.check

let fp = String.make 16 '\x07'
let other_fp = String.make 16 '\x08'

let mem () =
  let store = Mem.create_store ~seed:5 () in
  (store, Mem.fs store)

let read_all ?(policy = Wal.Reader.Stop_at_damage) ?(fingerprint = fp) fs file =
  Wal.Reader.fold fs file ~fingerprint ~policy ~init:[] ~f:(fun acc e ->
      e.Wal.Reader.payload :: acc)
  |> Result.map (fun (acc, outcome) -> (List.rev acc, outcome))

let expect_entries name expected outcome_check fs file =
  match read_all fs file with
  | Error e -> Alcotest.fail (Format.asprintf "%s: %a" name Wal.pp_error e)
  | Ok (entries, outcome) ->
    check Alcotest.(list string) name expected entries;
    outcome_check outcome

let no_stop outcome =
  check Alcotest.(option string) "no early stop" None outcome.Wal.Reader.stopped_early

(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  check Alcotest.int "no entries" 0 (Wal.Writer.entries w);
  check Alcotest.int "header length" Wal.header_size (Wal.Writer.length w);
  check Alcotest.int "index 0" 0 (Wal.Writer.append_sync w "first");
  check Alcotest.int "index 1" 1 (Wal.Writer.append_sync w "");
  check Alcotest.int "index 2" 2 (Wal.Writer.append_sync w (String.make 10000 'b'));
  check Alcotest.int "entries" 3 (Wal.Writer.entries w);
  Wal.Writer.close w;
  expect_entries "roundtrip" [ "first"; ""; String.make 10000 'b' ] no_stop fs "log"

let test_entry_indices_offsets () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w "aa");
  ignore (Wal.Writer.append_sync w "bbb");
  Wal.Writer.close w;
  match
    Wal.Reader.fold fs "log" ~fingerprint:fp ~policy:Wal.Reader.Stop_at_damage ~init:[]
      ~f:(fun acc e -> (e.Wal.Reader.index, e.Wal.Reader.offset) :: acc)
  with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e)
  | Ok (entries, outcome) ->
    check
      Alcotest.(list (pair int int))
      "indices and offsets"
      [
        (1, Wal.header_size + Wal.frame_overhead + 2);
        (0, Wal.header_size);
      ]
      entries;
    check Alcotest.int "valid_length covers all" (fs.Fs.file_size "log")
      outcome.Wal.Reader.valid_length

let test_one_write_one_sync_per_commit () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  let before = Fs.Counters.copy fs.Fs.counters in
  ignore (Wal.Writer.append_sync w "payload");
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "one data write" 1 d.Fs.Counters.data_writes;
  check Alcotest.int "one fsync" 1 d.Fs.Counters.syncs

let test_group_commit_one_sync () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  let before = Fs.Counters.copy fs.Fs.counters in
  List.iter (Wal.Writer.stage w) [ "a"; "b"; "c" ];
  ignore (Wal.Writer.flush_group w : int * int);
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "one write" 1 d.Fs.Counters.data_writes;
  check Alcotest.int "one fsync" 1 d.Fs.Counters.syncs;
  expect_entries "group" [ "a"; "b"; "c" ] no_stop fs "log"

let test_header_validation () =
  let _, fs = mem () in
  (* Missing file. *)
  (match read_all fs "absent" with
  | Error (Wal.Not_a_log _) -> ()
  | _ -> Alcotest.fail "expected Not_a_log");
  (* Foreign file. *)
  Fs.write_file fs "foreign" "this is not a log";
  (match read_all fs "foreign" with
  | Error (Wal.Not_a_log _) -> ()
  | _ -> Alcotest.fail "expected Not_a_log for foreign");
  (* Short file. *)
  Fs.write_file fs "short" "ab";
  (match read_all fs "short" with
  | Error (Wal.Not_a_log _) -> ()
  | _ -> Alcotest.fail "expected Not_a_log for short");
  (* Fingerprint mismatch. *)
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w "x");
  match read_all ~fingerprint:other_fp fs "log" with
  | Error (Wal.Fingerprint_mismatch _) -> ()
  | _ -> Alcotest.fail "expected Fingerprint_mismatch"

(* The header records the log's base LSN; a version-1 log, empty or
   not, is refused with a message naming its version. *)
let test_header_base_lsn () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:42 in
  ignore (Wal.Writer.append_sync w "x");
  Wal.Writer.close w;
  (match Wal.read_header fs "log" with
  | Ok h ->
    check Alcotest.int "base lsn" 42 h.Wal.base_lsn;
    check Alcotest.string "fingerprint" fp h.Wal.fingerprint
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e));
  expect_entries "entries after the header" [ "x" ] no_stop fs "log";
  List.iter
    (fun (name, contents) ->
      Fs.write_file fs name contents;
      match read_all fs name with
      | Error (Wal.Not_a_log m) ->
        check Alcotest.bool (name ^ " names version 1") true
          (Helpers.contains ~needle:"SDBWAL1" m)
      | _ -> Alcotest.fail ("expected Not_a_log for " ^ name))
    [ ("v1-empty", "SDBWAL1\n" ^ fp); ("v1", "SDBWAL1\n" ^ fp ^ String.make 12 '\x00') ]

let test_truncated_tail_discarded () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w "good1");
  ignore (Wal.Writer.append_sync w "good2");
  let boundary = Wal.Writer.length w in
  ignore (Wal.Writer.append_sync w "doomed");
  Wal.Writer.close w;
  (* Chop the file inside the last entry — a crash-truncated tail. *)
  fs.Fs.truncate "log" (boundary + 5);
  (match read_all fs "log" with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e)
  | Ok (entries, outcome) ->
    check Alcotest.(list string) "valid prefix" [ "good1"; "good2" ] entries;
    check Alcotest.int "valid_length at boundary" boundary outcome.Wal.Reader.valid_length;
    Alcotest.check Alcotest.bool "stopped early" true
      (outcome.Wal.Reader.stopped_early <> None));
  (* Truncation inside the frame header. *)
  fs.Fs.truncate "log" (boundary + 2);
  match read_all fs "log" with
  | Ok (entries, outcome) ->
    check Alcotest.(list string) "valid prefix 2" [ "good1"; "good2" ] entries;
    check Alcotest.int "valid_length 2" boundary outcome.Wal.Reader.valid_length
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e)

let test_crc_corruption_stops () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w "aaaa");
  let boundary = Wal.Writer.length w in
  ignore (Wal.Writer.append_sync w "bbbb");
  ignore (Wal.Writer.append_sync w "cccc");
  Wal.Writer.close w;
  (* Flip a byte inside entry 1's payload (no device error, only CRC). *)
  let h = fs.Fs.open_random "log" in
  h.Fs.pwrite ~off:(boundary + Wal.frame_overhead + 1) "X";
  h.Fs.rw_sync ();
  h.Fs.rw_close ();
  (match read_all fs "log" with
  | Ok (entries, outcome) ->
    check Alcotest.(list string) "stops at corrupt" [ "aaaa" ] entries;
    check Alcotest.int "valid_length" boundary outcome.Wal.Reader.valid_length
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e));
  (* Skip_damaged skips it and keeps going. *)
  match read_all ~policy:Wal.Reader.Skip_damaged fs "log" with
  | Ok (entries, outcome) ->
    check Alcotest.(list string) "skips corrupt" [ "aaaa"; "cccc" ] entries;
    check Alcotest.int "skipped count" 1 outcome.Wal.Reader.skipped
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e)

let test_damaged_page_stops_or_skips () =
  let store, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w (String.make 2000 'a'));
  let boundary = Wal.Writer.length w in
  ignore (Wal.Writer.append_sync w (String.make 2000 'b'));
  ignore (Wal.Writer.append_sync w (String.make 2000 'c'));
  Wal.Writer.close w;
  (* Device-level damage inside entry 1 (torn page). *)
  Mem.damage store ~file:"log" ~offset:(boundary + 600) ~len:100;
  (match read_all fs "log" with
  | Ok (entries, outcome) ->
    check Alcotest.int "one entry" 1 (List.length entries);
    check Alcotest.int "valid_length" boundary outcome.Wal.Reader.valid_length;
    Alcotest.check Alcotest.bool "stopped" true (outcome.Wal.Reader.stopped_early <> None)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e));
  match read_all ~policy:Wal.Reader.Skip_damaged fs "log" with
  | Ok (entries, outcome) ->
    check Alcotest.int "two entries" 2 (List.length entries);
    check Alcotest.int "skipped" 1 outcome.Wal.Reader.skipped;
    check Alcotest.(option string) "no stop" None outcome.Wal.Reader.stopped_early
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e)

let test_reopen_appends () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w "one");
  ignore (Wal.Writer.append_sync w "two");
  Wal.Writer.close w;
  match read_all fs "log" with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e)
  | Ok (_, outcome) ->
    let w =
      Wal.Writer.reopen fs "log" ~fingerprint:fp
        ~valid_length:outcome.Wal.Reader.valid_length
        ~entries:outcome.Wal.Reader.entries_read
    in
    check Alcotest.int "resumed index" 2 (Wal.Writer.append_sync w "three");
    Wal.Writer.close w;
    expect_entries "after reopen" [ "one"; "two"; "three" ] no_stop fs "log"

let test_reopen_truncates_torn_tail () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w "keep");
  let boundary = Wal.Writer.length w in
  ignore (Wal.Writer.append_sync w "torn-away");
  Wal.Writer.close w;
  fs.Fs.truncate "log" (boundary + 3);
  match read_all fs "log" with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e)
  | Ok (entries, outcome) ->
    check Alcotest.(list string) "prefix" [ "keep" ] entries;
    let w =
      Wal.Writer.reopen fs "log" ~fingerprint:fp
        ~valid_length:outcome.Wal.Reader.valid_length
        ~entries:outcome.Wal.Reader.entries_read
    in
    ignore (Wal.Writer.append_sync w "fresh");
    Wal.Writer.close w;
    expect_entries "tail replaced" [ "keep"; "fresh" ] no_stop fs "log"

let test_crash_mid_append_recovers_prefix () =
  (* Crash on the very write of an entry, across torn seeds: replay
     must always yield a clean prefix of what was committed. *)
  for seed = 1 to 40 do
    let store = Mem.create_store ~seed () in
    let fs = Mem.fs store in
    let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
    let committed = ref 0 in
    (try
       Mem.set_crash_after store ~ops:(4 + (seed mod 17)) ~mode:Mem.Torn;
       for i = 0 to 19 do
         ignore (Wal.Writer.append_sync w (Printf.sprintf "entry-%03d" i));
         incr committed
       done;
       Mem.disarm_crash store
     with Mem.Crash -> ());
    match read_all fs "log" with
    | Error e -> Alcotest.fail (Format.asprintf "seed %d: %a" seed Wal.pp_error e)
    | Ok (entries, _) ->
      (* All committed entries, in order, plus at most the in-flight one. *)
      let n = List.length entries in
      if n < !committed then
        Alcotest.fail
          (Printf.sprintf "seed %d: lost committed entries (%d < %d)" seed n !committed);
      if n > !committed + 1 then
        Alcotest.fail (Printf.sprintf "seed %d: phantom entries" seed);
      List.iteri
        (fun i payload ->
          check Alcotest.string "entry content" (Printf.sprintf "entry-%03d" i) payload)
        entries
  done

let test_interior_damage_detected () =
  (* A damaged entry with valid entries after it is interior media
     damage; a damaged final entry is a torn tail.  The reader must
     tell them apart. *)
  let store, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w (String.make 2000 'a'));
  let boundary = Wal.Writer.length w in
  ignore (Wal.Writer.append_sync w (String.make 2000 'b'));
  ignore (Wal.Writer.append_sync w (String.make 2000 'c'));
  ignore (Wal.Writer.append_sync w (String.make 2000 'd'));
  Wal.Writer.close w;
  (* Interior: damage entry 1; entries 2 and 3 are intact beyond it. *)
  Mem.damage store ~file:"log" ~offset:(boundary + 600) ~len:50;
  (match read_all fs "log" with
  | Ok (entries, outcome) ->
    check Alcotest.int "stops at damage" 1 (List.length entries);
    check Alcotest.int "two valid entries beyond" 2
      outcome.Wal.Reader.entries_beyond_damage
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e));
  (* Tail: fresh log, damage only the final entry. *)
  let store2, fs2 = mem () in
  let w = Wal.Writer.create fs2 "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w (String.make 2000 'a'));
  let b2 = Wal.Writer.length w in
  ignore (Wal.Writer.append_sync w (String.make 2000 'b'));
  Wal.Writer.close w;
  Mem.damage store2 ~file:"log" ~offset:(b2 + 600) ~len:50;
  match read_all fs2 "log" with
  | Ok (entries, outcome) ->
    check Alcotest.int "tail prefix" 1 (List.length entries);
    check Alcotest.int "nothing beyond a torn tail" 0
      outcome.Wal.Reader.entries_beyond_damage
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e)

let test_crc_interior_damage_detected () =
  (* Same distinction for a silent bit flip (CRC mismatch, no device
     error). *)
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w "first");
  let boundary = Wal.Writer.length w in
  ignore (Wal.Writer.append_sync w "second");
  ignore (Wal.Writer.append_sync w "third");
  Wal.Writer.close w;
  let h = fs.Fs.open_random "log" in
  h.Fs.pwrite ~off:(boundary + Wal.frame_overhead + 1) "X";
  h.Fs.rw_sync ();
  h.Fs.rw_close ();
  match read_all fs "log" with
  | Ok (_, outcome) ->
    check Alcotest.int "one beyond crc damage" 1 outcome.Wal.Reader.entries_beyond_damage
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e)

let test_writer_misuse () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  Wal.Writer.close w;
  (match Wal.Writer.append_sync w "x" with
  | _ -> Alcotest.fail "expected Io_error after close"
  | exception Fs.Io_error _ -> ());
  Alcotest.check_raises "bad fingerprint size"
    (Invalid_argument "Wal: fingerprint must be 16 bytes") (fun () ->
      ignore (Wal.Writer.create fs "log2" ~fingerprint:"short" ~base_lsn:0))

let test_count_entries () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  for i = 1 to 7 do
    Wal.Writer.stage w (string_of_int i)
  done;
  ignore (Wal.Writer.flush_group w : int * int);
  Wal.Writer.close w;
  match Wal.Reader.count_entries fs "log" ~fingerprint:fp with
  | Ok (n, _) -> check Alcotest.int "count" 7 n
  | Error e -> Alcotest.fail (Format.asprintf "%a" Wal.pp_error e)

(* Property: for random entries and a random cut point, replay returns
   a prefix and never fabricates data. *)
let prop_random_truncation =
  Helpers.qtest ~count:100 "random truncation yields clean prefix"
    QCheck2.Gen.(
      pair
        (list_size (1 -- 10) (string_size ~gen:char (0 -- 200)))
        (int_bound 4000))
    (fun (payloads, cut) ->
      let store = Mem.create_store ~seed:1 () in
      let fs = Mem.fs store in
      let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
      List.iter (Wal.Writer.stage w) payloads;
      ignore (Wal.Writer.flush_group w : int * int);
      Wal.Writer.close w;
      let size = fs.Fs.file_size "log" in
      let cut = min cut size in
      fs.Fs.truncate "log" cut;
      match read_all fs "log" with
      | Error (Wal.Not_a_log _) -> cut < Wal.header_size
      | Error _ -> false
      | Ok (entries, _) ->
        let expected_prefix =
          let rec take xs n = match (xs, n) with
            | _, 0 | [], _ -> []
            | x :: rest, n -> x :: take rest (n - 1)
          in
          take payloads (List.length entries)
        in
        entries = expected_prefix)

let test_raw_frames_counted () =
  (* [append_raw_frames] (the concurrent checkpoint's tail copy) must
     feed the same append counters as the framed path, or the metrics
     undercount log traffic. *)
  let module Metrics = Sdb_obs.Metrics in
  let m_appends = Metrics.counter "sdb_wal_appends_total" in
  let m_bytes = Metrics.counter "sdb_wal_appended_bytes_total" in
  let _, fs = mem () in
  let w = Wal.Writer.create fs "src" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w "first");
  ignore (Wal.Writer.append_sync w "second");
  Wal.Writer.close w;
  (* The bytes past the header are two valid frames. *)
  let raw_file = Fs.read_file fs "src" in
  let raw =
    String.sub raw_file Wal.header_size (String.length raw_file - Wal.header_size)
  in
  let w2 = Wal.Writer.create fs "dst" ~fingerprint:fp ~base_lsn:0 in
  let appends0 = Metrics.counter_value m_appends in
  let bytes0 = Metrics.counter_value m_bytes in
  Wal.Writer.append_raw_frames w2 raw ~count:2;
  Wal.Writer.sync w2;
  check Alcotest.int "appends counted" (appends0 + 2)
    (Metrics.counter_value m_appends);
  check Alcotest.int "bytes counted"
    (bytes0 + String.length raw)
    (Metrics.counter_value m_bytes);
  Wal.Writer.close w2;
  expect_entries "raw frames readable" [ "first"; "second" ] no_stop fs "dst"

(* ------------------------------------------------------------------ *)
(* Staged group API                                                    *)

let test_stage_flush_roundtrip () =
  let _, fs = mem () in
  let payloads = [ "alpha"; ""; String.make 5000 'q' ] in
  (* Reference: the same payloads through plain appends. *)
  let w_ref = Wal.Writer.create fs "ref" ~fingerprint:fp ~base_lsn:0 in
  List.iter (fun p -> ignore (Wal.Writer.append_sync w_ref p)) payloads;
  Wal.Writer.close w_ref;
  (* Staged: invisible until the flush, then one write + one fsync. *)
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  let before = Fs.Counters.copy fs.Fs.counters in
  List.iter (Wal.Writer.stage w) payloads;
  check Alcotest.int "staged frames" 3 (Wal.Writer.staged_frames w);
  check Alcotest.int "staged bytes"
    (List.fold_left
       (fun acc p -> acc + String.length p + Wal.frame_overhead)
       0 payloads)
    (Wal.Writer.staged_bytes w);
  check Alcotest.int "entries unchanged while staged" 0 (Wal.Writer.entries w);
  check Alcotest.int "length unchanged while staged" Wal.header_size
    (Wal.Writer.length w);
  let d0 = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "staging does no I/O" 0
    (d0.Fs.Counters.data_writes + d0.Fs.Counters.syncs);
  check
    Alcotest.(pair int int)
    "flush returns the index range" (0, 3)
    (Wal.Writer.flush_group w);
  let d1 = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "one data write for the group" 1 d1.Fs.Counters.data_writes;
  check Alcotest.int "one fsync for the group" 1 d1.Fs.Counters.syncs;
  check Alcotest.int "entries after flush" 3 (Wal.Writer.entries w);
  check Alcotest.int "nothing left staged" 0 (Wal.Writer.staged_frames w);
  Wal.Writer.close w;
  expect_entries "flushed group readable" payloads no_stop fs "log";
  (* The staged path is byte-identical to the append path. *)
  check Alcotest.string "same bytes as plain appends"
    (Fs.read_file fs "ref") (Fs.read_file fs "log")

let test_flush_empty_and_discard () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  let before = Fs.Counters.copy fs.Fs.counters in
  check
    Alcotest.(pair int int)
    "empty flush is a no-op" (0, 0)
    (Wal.Writer.flush_group w);
  let d = Fs.Counters.diff ~after:fs.Fs.counters ~before in
  check Alcotest.int "no I/O" 0 (d.Fs.Counters.data_writes + d.Fs.Counters.syncs);
  Wal.Writer.stage w "doomed";
  Wal.Writer.stage w "also doomed";
  Wal.Writer.discard_group w;
  check Alcotest.int "discarded" 0 (Wal.Writer.staged_frames w);
  check
    Alcotest.(pair int int)
    "nothing to flush after discard" (0, 0)
    (Wal.Writer.flush_group w);
  ignore (Wal.Writer.append_sync w "kept");
  Wal.Writer.close w;
  expect_entries "only the kept entry" [ "kept" ] no_stop fs "log"

let test_append_refused_while_staged () =
  let _, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  Wal.Writer.stage w "staged";
  (match Wal.Writer.append_sync w "interloper" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "append must refuse while a group is staged");
  (match Wal.Writer.append_raw_frames w "raw" ~count:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "append_raw_frames must refuse while a group is staged");
  ignore (Wal.Writer.flush_group w);
  ignore (Wal.Writer.append_sync w "after");
  Wal.Writer.close w;
  expect_entries "order preserved" [ "staged"; "after" ] no_stop fs "log"

let test_group_flush_rolled_back () =
  let store, fs = mem () in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w "committed");
  let len = Wal.Writer.length w in
  Mem.set_capacity store (Some (Mem.total_bytes store));
  Wal.Writer.stage w "doomed1";
  Wal.Writer.stage w "doomed2";
  (match Wal.Writer.flush_group w with
  | exception Wal.Append_rolled_back (Fs.No_space _) -> ()
  | _ -> Alcotest.fail "expected Append_rolled_back (No_space)");
  check Alcotest.int "length restored" len (Wal.Writer.length w);
  check Alcotest.int "entries restored" 1 (Wal.Writer.entries w);
  check Alcotest.int "group consumed by the failure" 0
    (Wal.Writer.staged_frames w);
  (* Space returns: the writer keeps working. *)
  Mem.set_capacity store None;
  Wal.Writer.stage w "retry";
  check
    Alcotest.(pair int int)
    "flush after rollback" (1, 1)
    (Wal.Writer.flush_group w);
  Wal.Writer.close w;
  expect_entries "log intact" [ "committed"; "retry" ] no_stop fs "log"

let test_torn_group_sweep () =
  (* Every byte-truncation point inside a flushed group must recover
     exactly the durable prefix of whole frames — the group version of
     the paper's partial-log-entry rule. *)
  let _, fs = mem () in
  let solo = "pre-group" in
  let group = [ "one"; "two-long-payload"; "three" ] in
  let w = Wal.Writer.create fs "log" ~fingerprint:fp ~base_lsn:0 in
  ignore (Wal.Writer.append_sync w solo);
  List.iter (Wal.Writer.stage w) group;
  ignore (Wal.Writer.flush_group w);
  Wal.Writer.close w;
  let data = Fs.read_file fs "log" in
  (* Frame boundaries, from the payload sizes. *)
  let payloads = solo :: group in
  let ends =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, off) p ->
              let e = off + Wal.frame_overhead + String.length p in
              (e :: acc, e))
            ([], Wal.header_size) payloads))
  in
  check Alcotest.int "boundaries cover the file" (String.length data)
    (List.nth ends (List.length ends - 1));
  for cut = Wal.header_size to String.length data - 1 do
    Fs.write_file fs "cut" (String.sub data 0 cut);
    let expected = List.filter (fun e -> e <= cut) ends |> List.length in
    match
      Wal.Reader.fold fs "cut" ~fingerprint:fp
        ~policy:Wal.Reader.Stop_at_damage ~init:0 ~f:(fun acc _ -> acc + 1)
    with
    | Error e -> Alcotest.fail (Format.asprintf "cut %d: %a" cut Wal.pp_error e)
    | Ok (n, outcome) ->
      check Alcotest.int
        (Printf.sprintf "cut %d: durable whole-frame prefix" cut)
        expected n;
      check Alcotest.int
        (Printf.sprintf "cut %d: valid_length at a frame boundary" cut)
        (List.fold_left (fun acc e -> if e <= cut then e else acc)
           Wal.header_size ends)
        outcome.Wal.Reader.valid_length;
      check Alcotest.int
        (Printf.sprintf "cut %d: torn tail, not interior damage" cut)
        0 outcome.Wal.Reader.entries_beyond_damage;
      if cut > List.fold_left (fun acc e -> if e <= cut then e else acc)
                 Wal.header_size ends
      then
        check Alcotest.bool
          (Printf.sprintf "cut %d: stop reported" cut)
          true
          (outcome.Wal.Reader.stopped_early <> None)
  done

let () =
  Helpers.run "wal"
    [
      ( "writer-reader",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "indices and offsets" `Quick test_entry_indices_offsets;
          Alcotest.test_case "one write one sync per commit" `Quick
            test_one_write_one_sync_per_commit;
          Alcotest.test_case "group commit single sync" `Quick test_group_commit_one_sync;
          Alcotest.test_case "count entries" `Quick test_count_entries;
          Alcotest.test_case "writer misuse" `Quick test_writer_misuse;
          Alcotest.test_case "raw frames feed counters" `Quick
            test_raw_frames_counted;
        ] );
      ( "staged-group",
        [
          Alcotest.test_case "stage/flush roundtrip, one write one sync" `Quick
            test_stage_flush_roundtrip;
          Alcotest.test_case "empty flush and discard" `Quick
            test_flush_empty_and_discard;
          Alcotest.test_case "append refused while staged" `Quick
            test_append_refused_while_staged;
          Alcotest.test_case "no-space flush rolled back" `Quick
            test_group_flush_rolled_back;
          Alcotest.test_case "torn-group truncation sweep" `Quick
            test_torn_group_sweep;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "header validation" `Quick test_header_validation;
          Alcotest.test_case "header base lsn and version" `Quick test_header_base_lsn;
          Alcotest.test_case "truncated tail discarded" `Quick
            test_truncated_tail_discarded;
          Alcotest.test_case "crc corruption stops replay" `Quick
            test_crc_corruption_stops;
          Alcotest.test_case "damaged page stop/skip" `Quick
            test_damaged_page_stops_or_skips;
          Alcotest.test_case "interior vs tail damage" `Quick
            test_interior_damage_detected;
          Alcotest.test_case "crc interior damage" `Quick
            test_crc_interior_damage_detected;
          Alcotest.test_case "reopen appends" `Quick test_reopen_appends;
          Alcotest.test_case "reopen truncates torn tail" `Quick
            test_reopen_truncates_torn_tail;
          Alcotest.test_case "crash mid-append sweep" `Quick
            test_crash_mid_append_recovers_prefix;
          prop_random_truncation;
        ] );
    ]
