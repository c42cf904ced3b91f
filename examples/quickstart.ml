(* Quickstart: a durable key-value store in ~40 lines.

   Define your state and update types with their pickles, give the
   engine an [apply] function, and you get a persistent database whose
   enquiries are memory lookups and whose updates cost one disk write.

   Run with:  dune exec examples/quickstart.exe *)

module P = Sdb_pickle.Pickle

module App = struct
  type state = (string, string) Hashtbl.t
  type update = Set of string * string | Remove of string

  let name = "quickstart"
  let codec_state = P.hashtbl P.string P.string

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

  let init () = Hashtbl.create 16
  let persistent = false

  let apply st = function
    | Set (k, v) ->
      Hashtbl.replace st k v;
      st
    | Remove k ->
      Hashtbl.remove st k;
      st
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
  let greeting = Db.query db (fun st -> Hashtbl.find_opt st "greeting") in
  Printf.printf "greeting = %s\n" (Option.value greeting ~default:"<unset>");

  (* A precondition checked under the update lock, before the commit. *)
  (match
     Db.update_checked db
       ~precondition:(fun st ->
         if Hashtbl.mem st "greeting" then Ok () else Error "no greeting yet")
       (App.Set ("greeting", "hello again"))
   with
  | Ok () -> print_endline "checked update applied"
  | Error e -> Printf.printf "checked update refused: %s\n" e);

  (* Checkpoint: pickles the whole table into a fresh generation and
     empties the log. *)
  Db.checkpoint db;
  let s = Db.stats db in
  Printf.printf "checkpointed: generation %d, lsn %d, log now %d entries\n"
    s.Smalldb.generation s.Smalldb.lsn s.Smalldb.log_entries;
  Db.close db;

  (* Reopen to prove durability. *)
  let db2 = Db.open_exn fs in
  let greeting = Db.query db2 (fun st -> Hashtbl.find_opt st "greeting") in
  Printf.printf "after restart: greeting = %s (replayed %d log entries)\n"
    (Option.value greeting ~default:"<unset>")
    (Db.stats db2).Smalldb.recovery.Smalldb.replayed;
  Db.close db2
