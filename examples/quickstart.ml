(* Quickstart: a durable key-value store in ~40 lines.

   Define your state and update types with their pickles, give the
   engine an [apply] function, and you get a persistent database whose
   enquiries are memory lookups and whose updates cost one disk write.

   Run with:  dune exec examples/quickstart.exe *)

module P = Sdb_pickle.Pickle
module Smap = Map.Make (String)

module App = struct
  (* Persistent: [apply] returns a new map and never mutates its
     argument, so a checkpoint can pickle a snapshot while updates go
     on. *)
  type state = string Smap.t
  type update = Set of string * string | Remove of string

  let name = "quickstart"

  let codec_state =
    P.conv ~name:"quickstart.state" Smap.bindings
      (fun bindings -> Smap.of_seq (List.to_seq bindings))
      (P.list (P.pair P.string P.string))

  let codec_update =
    P.variant ~name:"quickstart.update"
      [
        P.case "set"
          (P.pair P.string P.string)
          (function Set (k, v) -> Some (k, v) | Remove _ -> None)
          (fun (k, v) -> Set (k, v));
        P.case "remove" P.string
          (function Remove k -> Some k | Set _ -> None)
          (fun k -> Remove k);
      ]

  let init () = Smap.empty

  let apply st = function
    | Set (k, v) -> Smap.add k v st
    | Remove k -> Smap.remove k st
end

module Db = Smalldb.Make (App)

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "smalldb-quickstart" in
  let fs = Sdb_storage.Real_fs.create ~root:dir in
  Printf.printf "database directory: %s\n" dir;

  (* Open (recovering whatever a previous run left behind). *)
  let db = Db.open_exn fs in
  let before = (Db.stats db).Smalldb.lsn in
  Printf.printf "opened: %d updates committed over this store's lifetime\n" before;

  (* Updates: each is one log write, durable when the call returns. *)
  Db.update db (App.Set ("greeting", "hello world"));
  Db.update db (App.Set ("counter", string_of_int (before + 1)));
  Db.update db (App.Remove "scratch");

  (* Enquiries: pure memory. *)
  let greeting = Db.query db (Smap.find_opt "greeting") in
  Printf.printf "greeting = %s\n" (Option.value greeting ~default:"<unset>");

  (* A precondition checked under the update lock, before the commit. *)
  (match
     Db.update_checked db
       ~precondition:(fun st ->
         if Smap.mem "greeting" st then Ok () else Error "no greeting yet")
       (App.Set ("greeting", "hello again"))
   with
  | Ok () -> print_endline "checked update applied"
  | Error e -> Printf.printf "checked update refused: %s\n" e);

  (* Checkpoint: pickles the whole map into a fresh generation and
     empties the log. *)
  Db.checkpoint db;
  let s = Db.stats db in
  Printf.printf "checkpointed: generation %d, lsn %d, log now %d entries\n"
    s.Smalldb.generation s.Smalldb.lsn s.Smalldb.log_entries;
  Db.close db;

  (* Reopen to prove durability. *)
  let db2 = Db.open_exn fs in
  let greeting = Db.query db2 (Smap.find_opt "greeting") in
  Printf.printf "after restart: greeting = %s (replayed %d log entries)\n"
    (Option.value greeting ~default:"<unset>")
    (Db.stats db2).Smalldb.recovery.Smalldb.replayed;
  Db.close db2
