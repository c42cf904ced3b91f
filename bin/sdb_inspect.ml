(* Forensics for a small-database directory: show the generation files,
   which version is current, the checkpoint header, and a frame-by-frame
   scan of the log including where (and why) replay would stop.

   dune exec bin/sdb_inspect.exe -- /tmp/ns *)

module Fs = Sdb_storage.Fs
module Store = Sdb_checkpoint.Checkpoint_store
module Wal = Sdb_wal.Wal
module Crc32 = Sdb_util.Crc32

let pickle_magic = "SDBP1"

let human n = Sdb_util.Tablefmt.fmt_bytes n

let read_opt fs file =
  if fs.Fs.exists file then
    match Fs.read_file fs file with
    | s -> Some (Ok s)
    | exception Fs.Read_error { reason; _ } -> Some (Error reason)
  else None

let show_version fs name =
  match read_opt fs name with
  | None -> Printf.printf "  %-12s absent\n" name
  | Some (Ok contents) -> Printf.printf "  %-12s %S\n" name (String.trim contents)
  | Some (Error reason) -> Printf.printf "  %-12s unreadable (%s)\n" name reason

let show_checkpoint fs name =
  match read_opt fs name with
  | None -> Printf.printf "  %s: absent\n" name
  | Some (Error reason) -> Printf.printf "  %s: UNREADABLE (%s)\n" name reason
  | Some (Ok blob) ->
    let n = String.length blob in
    if n >= String.length pickle_magic + 16
       && String.sub blob 0 (String.length pickle_magic) = pickle_magic
    then
      Printf.printf "  %s: %s, pickle fingerprint %s\n" name (human n)
        (Digest.to_hex (String.sub blob (String.length pickle_magic) 16))
    else Printf.printf "  %s: %s, NOT a pickled checkpoint\n" name (human n)

let wal_error e = Format.asprintf "%a" Wal.pp_error e

let read_exact r n =
  let buf = Bytes.create n in
  let rec go got =
    if got = n then Ok buf
    else
      match r.Fs.r_read buf got (n - got) with
      | 0 -> Error "truncated"
      | k -> go (got + k)
      | exception Fs.Read_error { reason; _ } -> Error reason
  in
  go 0

(* The header through [Wal]; the frames walked by hand so damage is
   reported rather than hidden. *)
let show_log fs name =
  match fs.Fs.exists name with
  | false -> Printf.printf "  %s: absent\n" name
  | true -> (
    let size = fs.Fs.file_size name in
    match Wal.read_header fs name with
    | Error e -> Printf.printf "  %s: %s, %s\n" name (human size) (wal_error e)
    | Ok hdr ->
      Printf.printf "  %s: %s, update fingerprint %s, base lsn %d\n" name (human size)
        (Digest.to_hex hdr.Wal.fingerprint) hdr.Wal.base_lsn;
      let r = fs.Fs.open_reader name in
      let read_exact = read_exact r in
      let rec frames idx offset =
        if offset >= size then Printf.printf "    %d entries, clean end\n" idx
        else
          match read_exact Wal.frame_overhead with
          | Error reason ->
            Printf.printf "    %d entries, then unreadable frame header (%s)\n" idx reason
          | Ok fh ->
            let len = Int32.to_int (Bytes.get_int32_le fh 0) in
            let crc = Bytes.get_int32_le fh 4 in
            if len < 0 || offset + Wal.frame_overhead + len > size then
              Printf.printf "    %d entries, then truncated entry (claims %d bytes)\n" idx
                len
            else begin
              match read_exact len with
              | Error reason ->
                Printf.printf "    entry %d at %d: %d bytes, DAMAGED (%s)\n" idx offset len
                  reason
              | Ok payload ->
                let ok = Crc32.equal (Crc32.digest_bytes payload ~pos:0 ~len) crc in
                Printf.printf "    entry %d at %d: %d bytes, crc %s\n" idx offset len
                  (if ok then "ok" else "MISMATCH");
                frames (idx + 1) (offset + Wal.frame_overhead + len)
            end
      in
      r.Fs.r_seek Wal.header_size;
      frames 0 Wal.header_size;
      r.Fs.r_close ())

let inspect dir =
  let fs = Sdb_storage.Real_fs.create ~root:dir in
  Printf.printf "store: %s\n" dir;
  print_endline "version files:";
  show_version fs Store.version_file;
  show_version fs Store.newversion_file;
  print_endline "files:";
  List.iter
    (fun (name, size) -> Printf.printf "  %-20s %10s\n" name (human size))
    (Store.disk_files fs);
  (match Store.recover fs ~retain_previous:true with
  | Ok None -> print_endline "state: fresh (no committed generation)"
  | Ok (Some r) ->
    Printf.printf "current generation: %d%s\n" r.Store.current.Store.version
      (match r.Store.previous with
      | Some p -> Printf.sprintf " (previous %d retained)" p.Store.version
      | None -> "");
    if r.Store.completed_switch then
      print_endline "note: completed a half-finished checkpoint switch";
    if r.Store.removed_files <> [] then
      Printf.printf "cleaned up: %s\n" (String.concat ", " r.Store.removed_files);
    print_endline "checkpoint:";
    show_checkpoint fs r.Store.current.Store.checkpoint_file;
    print_endline "log:";
    show_log fs r.Store.current.Store.log_file
  | Error e -> Printf.printf "state: CORRUPT (%s)\n" e)

(* --metrics: scan the current generation's log through the real
   Wal.Reader (populating the sdb_wal_* counters as a side effect) and
   dump the whole registry in Prometheus text format. *)

let metrics_mode dir =
  let fs = Sdb_storage.Real_fs.create ~root:dir in
  (match Store.recover fs ~retain_previous:true with
  | Ok (Some r) -> (
    let log = r.Store.current.Store.log_file in
    match Wal.read_header fs log with
    | Ok { Wal.fingerprint; _ } ->
      (* Per-frame scan latency lands in a histogram so the summary
         table below has offline content: what a recovery replay of
         this store would pay per entry. *)
      let m_scan =
        Sdb_obs.Metrics.histogram "sdb_inspect_scan_seconds"
          ~help:"Per-entry WAL scan latency of the offline metrics pass."
      in
      let last = ref (Unix.gettimeofday ()) in
      ignore
        (Wal.Reader.fold fs log ~fingerprint ~policy:Wal.Reader.Stop_at_damage ~init:()
           ~f:(fun () _ ->
             let now = Unix.gettimeofday () in
             Sdb_obs.Metrics.observe m_scan (now -. !last);
             last := now))
    | Error _ -> ())
  | Ok None | Error _ -> ());
  print_string (Sdb_obs.Metrics.render ());
  (* The same histograms as a human-readable percentile table — the
     text exposition above is for scrapers, this is for eyes. *)
  let summaries =
    List.filter (fun (_, _, s) -> s.Sdb_util.Histogram.s_count > 0)
      (Sdb_obs.Metrics.summaries ())
  in
  if summaries <> [] then begin
    print_newline ();
    print_endline "latency summaries (ms):";
    let fmt v = Printf.sprintf "%.3f" (v *. 1000.0) in
    let rows =
      List.map
        (fun (name, labels, s) ->
          let open Sdb_util.Histogram in
          let series =
            match labels with
            | [] -> name
            | ls ->
              Printf.sprintf "%s{%s}" name
                (String.concat ","
                   (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) ls))
          in
          [
            series; string_of_int s.s_count; fmt s.s_p50; fmt s.s_p90;
            fmt s.s_p99; fmt s.s_p999; fmt s.s_max;
          ])
        summaries
    in
    print_string
      (Sdb_util.Tablefmt.render
         ~header:[ "series"; "count"; "p50"; "p90"; "p99"; "p999"; "max" ]
         rows)
  end

(* --scrub: offline integrity scan.  Media-scan every retained
   generation file page by page (reporting unreadable ranges by file
   and offset), then verify every log frame's CRC.  No engine, no
   locks: safe to run on a store no process has open.

   Exit status: 0 scan complete and clean, 1 damage found, 2 store
   unreadable (no complete generation to scan). *)

let scan_page = 4096

(* One finding per unreadable page; resume at the next page so a single
   bad region does not mask damage further into the file. *)
let media_scan fs name findings =
  if not (fs.Fs.exists name) then findings
  else begin
    let size = fs.Fs.file_size name in
    let r = fs.Fs.open_reader name in
    Fun.protect
      ~finally:(fun () -> r.Fs.r_close ())
      (fun () ->
        let buf = Bytes.create scan_page in
        let rec go offset findings =
          if offset >= size then findings
          else begin
            let want = min scan_page (size - offset) in
            r.Fs.r_seek offset;
            let rec read got =
              if got >= want then Ok ()
              else
                match r.Fs.r_read buf got (want - got) with
                | 0 -> Error "unexpected end of file"
                | k -> read (got + k)
                | exception Fs.Read_error { reason; _ } -> Error reason
            in
            match read 0 with
            | Ok () -> go (offset + want) findings
            | Error reason ->
              go (offset + scan_page) ((name, offset, reason) :: findings)
          end
        in
        go 0 findings)
  end

(* Frame-walk a log, collecting CRC and framing damage as findings
   rather than printing as we go. *)
let log_scan fs name findings =
  if not (fs.Fs.exists name) then findings
  else begin
    let size = fs.Fs.file_size name in
    match Wal.read_header fs name with
    | Error e -> (name, 0, wal_error e) :: findings
    | Ok _ ->
      let r = fs.Fs.open_reader name in
      Fun.protect
        ~finally:(fun () -> r.Fs.r_close ())
        (fun () ->
          let read_exact = read_exact r in
          (* Skip damaged frames (resuming just past them) so every bad
             entry is reported, not only the first. *)
          let rec frames offset findings =
            if offset >= size then findings
            else
              match read_exact Wal.frame_overhead with
              | Error reason ->
                (name, offset, "unreadable frame header: " ^ reason) :: findings
              | Ok fh ->
                let len = Int32.to_int (Bytes.get_int32_le fh 0) in
                let crc = Bytes.get_int32_le fh 4 in
                if len < 0 || offset + Wal.frame_overhead + len > size then
                  (name, offset, Printf.sprintf "truncated entry (claims %d bytes)" len)
                  :: findings
                else begin
                  let after = offset + Wal.frame_overhead + len in
                  match read_exact len with
                  | Error reason ->
                    r.Fs.r_seek after;
                    frames after ((name, offset, "unreadable entry: " ^ reason) :: findings)
                  | Ok payload ->
                    let findings =
                      if Crc32.equal (Crc32.digest_bytes payload ~pos:0 ~len) crc then
                        findings
                      else (name, offset, "entry crc mismatch") :: findings
                    in
                    frames after findings
                end
          in
          r.Fs.r_seek Wal.header_size;
          frames Wal.header_size findings)
  end

let scrub_mode dir =
  let fs = Sdb_storage.Real_fs.create ~root:dir in
  match Store.recover fs ~retain_previous:true with
  | Error e ->
    Printf.printf "store %s: UNREADABLE (%s)\n" dir e;
    exit 2
  | Ok None ->
    Printf.printf "store %s: fresh (nothing to scrub)\n" dir;
    exit 0
  | Ok (Some r) ->
    let gens = r.Store.current :: Option.to_list r.Store.previous in
    let scanned =
      List.concat_map
        (fun g -> [ g.Store.checkpoint_file; g.Store.log_file ])
        gens
      |> List.filter fs.Fs.exists
    in
    let findings =
      List.fold_left
        (fun acc g ->
          let acc = media_scan fs g.Store.checkpoint_file acc in
          let acc = media_scan fs g.Store.log_file acc in
          log_scan fs g.Store.log_file acc)
        [] gens
      |> List.rev
    in
    Printf.printf "store %s: scanned %s\n" dir (String.concat ", " scanned);
    if findings = [] then begin
      print_endline "scrub: clean";
      exit 0
    end
    else begin
      Printf.printf "scrub: %d finding(s)\n" (List.length findings);
      List.iter
        (fun (file, offset, reason) ->
          Printf.printf "  %s @%d: %s\n" file offset reason)
        findings;
      exit 1
    end

let () =
  let run ~mode dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      match mode with
      | `Metrics -> metrics_mode dir
      | `Scrub -> scrub_mode dir
      | `Inspect -> inspect dir
    else begin
      Printf.eprintf "no such directory: %s\n" dir;
      exit 2
    end
  in
  match Sys.argv with
  | [| _; "--metrics"; dir |] | [| _; dir; "--metrics" |] -> run ~mode:`Metrics dir
  | [| _; "--scrub"; dir |] | [| _; dir; "--scrub" |] -> run ~mode:`Scrub dir
  | [| _; dir |] -> run ~mode:`Inspect dir
  | _ ->
    prerr_endline "usage: sdb_inspect [--metrics | --scrub] DIR";
    prerr_endline "";
    prerr_endline "  (no flag)  show generation files, checkpoint header, log frames";
    prerr_endline "  --metrics  scan the log and dump the metrics registry";
    prerr_endline "  --scrub    offline integrity scan of every retained generation;";
    prerr_endline "             exit 0 clean, 1 damage found, 2 store unreadable";
    exit 2
