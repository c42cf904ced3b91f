module P = Sdb_pickle.Pickle

let technique = "this paper (memory + log + checkpoint)"

type update = Set of string * string | Remove of string

let codec_update =
  P.variant ~name:"kv.update"
    [
      P.case "set"
        (P.pair P.string P.string)
        (function Set (k, v) -> Some (k, v) | Remove _ -> None)
        (fun (k, v) -> Set (k, v));
      P.case "remove" P.string
        (function Remove k -> Some k | Set _ -> None)
        (fun k -> Remove k);
    ]

module Smap = Map.Make (String)

module App = struct
  type state = string Smap.t
  type nonrec update = update

  let name = "smalldb-kv"

  let codec_state =
    P.conv ~name:"kv.state" Smap.bindings
      (fun bindings -> Smap.of_seq (List.to_seq bindings))
      (P.list (P.pair P.string P.string))

  let codec_update = codec_update
  let init () = Smap.empty

  let apply state = function
    | Set (k, v) -> Smap.add k v state
    | Remove k -> Smap.remove k state
end

module Db = Smalldb.Make (App)

type t = Db.t

let open_with ?config fs = Db.open_ ?config fs
let open_ fs = open_with fs
let db t = t
let get t k = Db.query t (Smap.find_opt k)
let set t k v = Db.update t (Set (k, v))
let remove t k = Db.update t (Remove k)
let iter t f = Db.query t (Smap.iter f)
let length t = Db.query t Smap.cardinal
let checkpoint = Db.checkpoint
let quiesce = Db.checkpoint

(* The whole current log is read back with CRC checking, which is the
   strongest on-disk validation available without closing the store. *)
let verify t =
  match Db.fold_log t ~init:0 ~f:(fun acc _ _ -> acc + 1) with
  | _n -> Ok ()
  | exception e -> Error (Printexc.to_string e)

let close = Db.close
