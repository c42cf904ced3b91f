(* The paper's motivating example (§1): "records of user accounts" —
   the /etc/passwd class of operating-system database, here with typed
   records, integrity preconditions, and one disk write per change
   instead of rewriting a text file.

   Run with:  dune exec examples/user_accounts.exe *)

module P = Sdb_pickle.Pickle

type account = {
  uid : int;
  login : string;
  full_name : string;
  shell : string;
  groups : string list;
}

let codec_account =
  P.record5 "account"
    (P.field "uid" P.int (fun a -> a.uid))
    (P.field "login" P.string (fun a -> a.login))
    (P.field "full_name" P.string (fun a -> a.full_name))
    (P.field "shell" P.string (fun a -> a.shell))
    (P.field "groups" (P.list P.string) (fun a -> a.groups))
    (fun uid login full_name shell groups -> { uid; login; full_name; shell; groups })

module Smap = Map.Make (String)

module App = struct
  type state = account Smap.t

  type update =
    | Add_account of account
    | Remove_account of string
    | Change_shell of string * string
    | Add_to_group of string * string

  let name = "user-accounts"

  let codec_state =
    P.conv ~name:"accounts.state" Smap.bindings
      (fun bindings -> Smap.of_seq (List.to_seq bindings))
      (P.list (P.pair P.string codec_account))

  let codec_update =
    P.variant ~name:"accounts.update"
      [
        P.case "add" codec_account
          (function Add_account a -> Some a | _ -> None)
          (fun a -> Add_account a);
        P.case "remove" P.string
          (function Remove_account l -> Some l | _ -> None)
          (fun l -> Remove_account l);
        P.case "chsh" (P.pair P.string P.string)
          (function Change_shell (l, s) -> Some (l, s) | _ -> None)
          (fun (l, s) -> Change_shell (l, s));
        P.case "addgroup" (P.pair P.string P.string)
          (function Add_to_group (l, g) -> Some (l, g) | _ -> None)
          (fun (l, g) -> Add_to_group (l, g));
      ]

  let init () = Smap.empty

  (* apply must be total: preconditions live in the checked wrappers. *)
  let apply st = function
    | Add_account a -> Smap.add a.login a st
    | Remove_account login -> Smap.remove login st
    | Change_shell (login, shell) ->
      Smap.update login (Option.map (fun a -> { a with shell })) st
    | Add_to_group (login, group) ->
      Smap.update login
        (Option.map (fun a ->
             if List.mem group a.groups then a else { a with groups = group :: a.groups }))
        st
end

module Db = Smalldb.Make (App)

(* Typed operations with the §3 three-step update discipline. *)

let add_account db a =
  Db.update_checked db
    ~precondition:(fun st ->
      if Smap.mem a.login st then Error (a.login ^ ": login already taken")
      else if Smap.exists (fun _ b -> b.uid = a.uid) st then
        Error (Printf.sprintf "uid %d already in use" a.uid)
      else Ok ())
    (App.Add_account a)

let change_shell db login shell =
  Db.update_checked db
    ~precondition:(fun st ->
      if Smap.mem login st then Ok () else Error (login ^ ": no such account"))
    (App.Change_shell (login, shell))

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "smalldb-accounts" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let fs = Sdb_storage.Real_fs.create ~root:dir in
  (* Checkpoint automatically once the log passes 64 KiB — the "single
     overnight checkpoint" policy scaled down for a demo. *)
  let config =
    { Smalldb.default_config with policy = Smalldb.Log_bytes_exceeds (64 * 1024) }
  in
  let db = Db.open_exn ~config fs in

  let adb = { uid = 101; login = "birrell"; full_name = "Andrew D. Birrell";
              shell = "/bin/csh"; groups = [ "src" ] } in
  let mbj = { uid = 102; login = "jones"; full_name = "Michael B. Jones";
              shell = "/bin/sh"; groups = [ "cmu" ] } in
  List.iter
    (fun a ->
      match add_account db a with
      | Ok () -> Printf.printf "added %s (uid %d)\n" a.login a.uid
      | Error e -> Printf.printf "refused: %s\n" e)
    [ adb; mbj; { adb with login = "birrell2" } (* duplicate uid, refused *) ];

  (match change_shell db "jones" "/bin/ksh" with
  | Ok () -> print_endline "jones now uses ksh"
  | Error e -> print_endline e);
  (match change_shell db "nobody" "/bin/false" with
  | Ok () -> ()
  | Error e -> Printf.printf "refused: %s\n" e);

  Db.update db (App.Add_to_group ("birrell", "wheel"));

  (* Report. *)
  print_endline "accounts:";
  Db.query db (fun st ->
      Smap.fold (fun _ a acc -> a :: acc) st []
      |> List.sort (fun a b -> compare a.uid b.uid)
      |> List.iter (fun a ->
             Printf.printf "  %4d %-10s %-20s %-10s [%s]\n" a.uid a.login a.full_name
               a.shell
               (String.concat "," a.groups)));
  let s = Db.stats db in
  Printf.printf "%d accounts, %d updates logged, generation %d\n"
    (Db.query db Smap.cardinal) s.Smalldb.log_entries s.Smalldb.generation;
  Db.close db
