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

module App = struct
  type state = (string, string) Hashtbl.t
  type nonrec update = update

  let name = "smalldb-kv"
  let codec_state = P.hashtbl P.string P.string
  let codec_update = codec_update
  let init () = Hashtbl.create 64
  let persistent = false

  let apply state u =
    (match u with
    | Set (k, v) -> Hashtbl.replace state k v
    | Remove k -> Hashtbl.remove state k);
    state
end

module Db = Smalldb.Make (App)

type t = Db.t

let open_with ?config fs = Db.open_ ?config fs
let open_ fs = open_with fs
let db t = t
let get t k = Db.query t (fun tbl -> Hashtbl.find_opt tbl k)
let set t k v = Db.update t (Set (k, v))
let remove t k = Db.update t (Remove k)
let iter t f = Db.query t (fun tbl -> Hashtbl.iter f tbl)
let length t = Db.query t Hashtbl.length
let checkpoint = Db.checkpoint
let quiesce = Db.checkpoint

(* The whole current log is read back with CRC checking, which is the
   strongest on-disk validation available without closing the store. *)
let verify t =
  match Db.fold_log t ~init:0 ~f:(fun acc _ _ -> acc + 1) with
  | _n -> Ok ()
  | exception e -> Error (Printexc.to_string e)

let close = Db.close
