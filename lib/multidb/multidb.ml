module Fs = Sdb_storage.Fs

(* "p<k>.<name>" belongs to partition k. *)
let partition_of name =
  match String.index_opt name '.' with
  | Some i when i > 1 && name.[0] = 'p' ->
    let digits = String.sub name 1 (i - 1) in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then int_of_string_opt digits
    else None
  | _ -> None

module Make (App : Smalldb.APP) = struct
  module Db = Smalldb.Make (App)

  type t = { parts : Db.t array; mutable next : int }

  let open_ ?config ~partitions fs =
    if partitions < 1 then invalid_arg "Multidb.open_: partitions must be positive";
    let files =
      List.filter_map
        (fun name -> Option.map (fun k -> (k, name)) (partition_of name))
        (fs.Fs.list_files ())
    in
    let found = List.sort_uniq compare (List.map fst files) in
    let created = List.mem 0 found in
    if created && found <> List.init partitions Fun.id then
      Error
        (Printf.sprintf "multidb: store holds %d partitions, %d requested"
           (List.length found) partitions)
    else begin
      (* Without partition 0 no creation finished: wipe its leftovers. *)
      if not created then List.iter (fun (_, name) -> fs.Fs.remove name) files;
      let rec open_from k opened =
        if k < 0 then Ok { parts = Array.of_list opened; next = 0 }
        else
          match Db.open_ ?config (Fs.prefixed fs (Printf.sprintf "p%d." k)) with
          | Ok db -> open_from (k - 1) (db :: opened)
          | Error e ->
            List.iter Db.close opened;
            Error (Printf.sprintf "multidb: partition %d: %s" k e)
      in
      open_from (partitions - 1) []
    end

  let open_exn ?config ~partitions fs =
    match open_ ?config ~partitions fs with Ok t -> t | Error e -> failwith e

  let partition_count t = Array.length t.parts

  let partition t k =
    if k < 0 || k >= Array.length t.parts then
      invalid_arg (Printf.sprintf "Multidb: partition %d out of range" k);
    t.parts.(k)

  let checkpoint_next t =
    let k = t.next in
    Db.checkpoint t.parts.(k);
    t.next <- (k + 1) mod Array.length t.parts

  let checkpoint_all t = Array.iter Db.checkpoint t.parts
  let close t = Array.iter Db.close t.parts
end
