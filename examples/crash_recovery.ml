(* Reliability demonstration (§4): inject crashes at every disk
   operation of an update workload — including torn pages — and show
   that recovery always lands on a clean prefix of the committed
   updates, with partial log entries detected and discarded.  Exits 1
   if any crash point loses a committed update or recovers a phantom.

   Run with:  dune exec examples/crash_recovery.exe *)

module P = Sdb_pickle.Pickle
module Mem = Sdb_storage.Mem_fs

module Smap = Map.Make (String)

module App = struct
  type state = string Smap.t
  type update = Set of string * string

  let name = "crashdemo"

  let codec_state =
    P.conv ~name:"crashdemo.state" Smap.bindings
      (fun bindings -> Smap.of_seq (List.to_seq bindings))
      (P.list (P.pair P.string P.string))

  let codec_update =
    P.conv ~name:"crashdemo.update"
      (fun (Set (k, v)) -> (k, v))
      (fun (k, v) -> Set (k, v))
      (P.pair P.string P.string)

  let init () = Smap.empty
  let apply st (Set (k, v)) = Smap.add k v st
end

module Db = Smalldb.Make (App)

let () =
  print_endline "crash sweep: 10 updates + 1 checkpoint, torn-page crashes";
  print_endline "crash-point  committed  recovered  verdict";
  let lost = ref 0 and phantom = ref 0 and points = ref 0 in
  let k = ref 1 in
  let continue = ref true in
  while !continue do
    let store = Mem.create_store ~seed:!k () in
    let fs = Mem.fs store in
    let committed = ref 0 in
    let crashed = ref false in
    (try
       let db = Db.open_exn fs in
       Mem.set_crash_after store ~ops:!k ~mode:Mem.Torn;
       for i = 1 to 10 do
         Db.update db (App.Set (Printf.sprintf "key%02d" i, string_of_int i));
         incr committed;
         if i = 5 then Db.checkpoint db
       done;
       Mem.disarm_crash store
     with Mem.Crash -> crashed := true);
    Mem.disarm_crash store;
    if not !crashed then begin
      (* The budget outlived the workload: the sweep is complete. *)
      continue := false
    end
    else begin
      incr points;
      let db = Db.open_exn fs in
      let recovered = Db.query db Smap.cardinal in
      let verdict =
        if recovered < !committed then begin
          incr lost;
          "LOST COMMITTED DATA"
        end
        else if recovered > !committed + 1 then begin
          incr phantom;
          "PHANTOM DATA"
        end
        else if recovered = !committed then "exact"
        else "in-flight update survived"
      in
      if !k <= 12 || verdict <> "exact" then
        Printf.printf "%11d  %9d  %9d  %s\n" !k !committed recovered verdict;
      Db.close db
    end;
    incr k
  done;
  Printf.printf "... (%d crash points swept)\n" !points;
  Printf.printf "result: %d losses, %d phantoms across %d crash points\n" !lost
    !phantom !points;
  if !lost = 0 && !phantom = 0 then
    print_endline "every crash recovered to a clean prefix of committed updates"
  else exit 1
