(* Shared test scaffolding: a simple KV application over the engine, a
   self-verifying workload for crash sweeps, and small conveniences. *)

module P = Sdb_pickle.Pickle
module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs

let check = Alcotest.check
let fail = Alcotest.fail

(* Deterministic temp directories for Real_fs tests. *)
let fresh_dir =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "sdb-test-%s-%d-%d" prefix (Unix.getpid ()) !counter)
    in
    dir

module Smap = Map.Make (String)

(* The canonical test application: a string->string map. *)
module KV = struct
  type state = string Smap.t
  type update = Set of string * string | Del of string

  let name = "test-kv"

  let codec_state =
    P.conv ~name:"test-kv.state" Smap.bindings
      (fun bindings -> Smap.of_seq (List.to_seq bindings))
      (P.list (P.pair P.string P.string))

  let codec_update =
    P.variant ~name:"test-kv.update"
      [
        P.case "set"
          (P.pair P.string P.string)
          (function Set (k, v) -> Some (k, v) | Del _ -> None)
          (fun (k, v) -> Set (k, v));
        P.case "del" P.string
          (function Del k -> Some k | Set _ -> None)
          (fun k -> Del k);
      ]

  let init () = Smap.empty

  let apply st = function
    | Set (k, v) -> Smap.add k v st
    | Del k -> Smap.remove k st
end

module KVDb = Smalldb.Make (KV)

let mem_db ?config ?seed () =
  let store = Mem.create_store ?seed () in
  let fs = Mem.fs store in
  (store, fs, KVDb.open_exn ?config fs)

let kv_contents db = KVDb.query db Smap.bindings

(* A self-verifying sequential workload: update i sets key "k<i>" to
   "v<i>".  After recovery, the surviving state must be exactly the
   set {0..n-1} for some n with committed <= n <= attempted. *)
let sequenced_key i = Printf.sprintf "k%04d" i
let sequenced_value i = Printf.sprintf "v%04d" i

let sequenced_update i = KV.Set (sequenced_key i, sequenced_value i)

(* Returns the number of sequenced updates present, failing if the
   state is not a clean prefix. *)
let sequenced_prefix db =
  let bindings = kv_contents db in
  let n = List.length bindings in
  List.iteri
    (fun i (k, v) ->
      check Alcotest.string "prefix key" (sequenced_key i) k;
      check Alcotest.string "prefix value" (sequenced_value i) v)
    bindings;
  n

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Wait for something another thread or domain does; the deadline only
   turns a hang into a failure. *)
let await what cond =
  let deadline = Unix.gettimeofday () +. 10. in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then fail ("timed out waiting for " ^ what);
    Thread.delay 0.001
  done

(* A policy checkpoint pickles on a domain of its own and is installed
   by the next commit or [close]: wait until no pickle is running. *)
let settle db =
  await "the policy pickle" (fun () ->
      (KVDb.stats db).Smalldb.background_checkpoint <> `Pickling)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* Exactly the alcotest harness invocation every suite uses. *)
let run name suites = Alcotest.run ~and_exit:true name suites
