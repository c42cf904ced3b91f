(* The §7 extension in action: "the directories of a large file system
   ... handled by considering them as multiple separate databases for
   the purpose of writing checkpoints", with one log file each.

   A toy file-directory service: 4 partitions (hash of the directory
   name), each an ordinary engine with its own checkpoint and log in
   the one directory; every update is one write to its partition's
   log, and checkpoints go one partition at a time — the whole
   database is never pickled in one blocking operation.

   Run with:  dune exec examples/partitioned_directory.exe *)

module P = Sdb_pickle.Pickle
module Multidb = Sdb_multidb.Multidb
module Mem = Sdb_storage.Mem_fs

module Smap = Map.Make (String)

let codec_smap ~name v =
  P.conv ~name Smap.bindings
    (fun bindings -> Smap.of_seq (List.to_seq bindings))
    (P.list (P.pair P.string v))

module Dirs = struct
  (* directory -> (file -> size) *)
  type state = int Smap.t Smap.t
  type update = Create_file of string * string * int | Delete_file of string * string

  let name = "directories"
  let codec_state = codec_smap ~name:"dirs.state" (codec_smap ~name:"dirs.files" P.int)

  let codec_update =
    P.variant ~name:"dirs.update"
      [
        P.case "create"
          (P.triple P.string P.string P.int)
          (function Create_file (d, f, s) -> Some (d, f, s) | Delete_file _ -> None)
          (fun (d, f, s) -> Create_file (d, f, s));
        P.case "delete" (P.pair P.string P.string)
          (function Delete_file (d, f) -> Some (d, f) | Create_file _ -> None)
          (fun (d, f) -> Delete_file (d, f));
      ]

  let init () = Smap.empty

  let apply st = function
    | Create_file (d, f, size) ->
      Smap.update d
        (fun files -> Some (Smap.add f size (Option.value files ~default:Smap.empty)))
        st
    | Delete_file (d, f) -> Smap.update d (Option.map (Smap.remove f)) st
end

module Multi = Multidb.Make (Dirs)
module Db = Multi.Db

let partitions = 4
let partition_of dir = Hashtbl.hash dir mod partitions

let () =
  let store = Mem.create_store ~seed:7 () in
  let fs = Mem.fs store in
  (* Each partition checkpoints itself after 50 of its own updates:
     the incremental version of the paper's nightly checkpoint. *)
  let config = { Smalldb.default_config with policy = Smalldb.Every_n_updates 50 } in
  let db = Multi.open_exn ~config ~partitions fs in
  let part dir = Multi.partition db (partition_of dir) in

  (* Populate a few hundred files across directories. *)
  let rng = Sdb_util.Rng.create ~seed:8 in
  for i = 0 to 399 do
    let dir = Printf.sprintf "/home/user%d" (i mod 7) in
    let file = Printf.sprintf "file%03d.txt" i in
    Db.update (part dir) (Dirs.Create_file (dir, file, Sdb_util.Rng.int rng 100_000))
  done;
  Db.update (part "/home/user3") (Dirs.Delete_file ("/home/user3", "file003.txt"));

  (* Enquiries hit only the partition that owns the directory. *)
  let count_files db dir =
    Db.query (Multi.partition db (partition_of dir)) (fun st ->
        match Smap.find_opt dir st with Some files -> Smap.cardinal files | None -> 0)
  in
  let user3_files = count_files db "/home/user3" in
  Printf.printf "/home/user3 holds %d files\n" user3_files;

  let stats db = List.init partitions (fun k -> Db.stats (Multi.partition db k)) in
  let sum f db = List.fold_left (fun acc s -> acc + f s) 0 (stats db) in
  Printf.printf "%d updates over %d partitions\n"
    (sum (fun s -> s.Smalldb.lsn) db) partitions;
  List.iteri
    (fun k s ->
      Printf.printf "  partition %d: checkpoint v%d, %d log entries\n" k
        s.Smalldb.generation s.Smalldb.log_entries)
    (stats db);

  (* Restart: each partition replays only its own log. *)
  let lsn = sum (fun s -> s.Smalldb.lsn) db in
  Multi.close db;
  let db2 = Multi.open_exn ~config ~partitions fs in
  Printf.printf "after restart: lsn %d, replayed %d entries\n"
    (sum (fun s -> s.Smalldb.lsn) db2)
    (sum (fun s -> s.Smalldb.recovery.Smalldb.replayed) db2);
  Printf.printf "/home/user3 still holds %d files\n" (count_files db2 "/home/user3");
  let intact =
    sum (fun s -> s.Smalldb.lsn) db2 = lsn && count_files db2 "/home/user3" = user3_files
  in
  Multi.close db2;
  if not intact then begin
    print_endline "restart lost or invented updates";
    exit 1
  end
