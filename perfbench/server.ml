(* The server process: a name server built from the same calls
   [smalldb_ns serve] makes (Nameserver.open_, Ns_protocol.serve,
   Rpc.Socket.listen, and the slow-span ring it installs by default),
   over an in-memory store whose flush takes a fixed time.
   The load generator that started it sends commands on stdin and reads
   one reply line per command on stdout; an end of file on stdin shuts
   the server down.  Nothing here clears the program's own metrics
   registry: counters are read at the start and end of each slice and
   the differences summed. *)

open Common
module Ns = Sdb_nameserver.Nameserver
module Proto = Sdb_rpc.Ns_protocol
module Rpc = Sdb_rpc.Rpc
module Mem = Sdb_storage.Mem_fs
module Fs = Sdb_storage.Fs
module Pickle = Sdb_pickle.Pickle
module Metrics = Sdb_obs.Metrics
module Trace = Sdb_obs.Trace

type opts = { w : workload; socket : string; traced : bool; spans_file : string }

(* The flush time, and the slow-span ring [smalldb_ns serve] installs
   unless told otherwise. *)
let sync_s = 0.001
let trace_ring = 512
let trace_slow_s = 0.001

type state = {
  o : opts;
  config : Smalldb.config;
  store : Mem.store;
  fs : Fs.t;
  mutable served : Ns.t option;  (** None only while reopening *)
  mutable listener : Rpc.Socket.listener option;
  mutable conns : int;
  updates : Ns.update list;  (** the generated entries, as one load batch *)
  inputs_words : int;  (** live heap holding the generated entries *)
}

let engine st = Option.get st.served

let reply fields =
  print_endline (fields_to_line fields);
  flush stdout

(* The live major heap after a full collection: what the process
   retains, free of when the collector last ran. *)
let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* Every flush takes [sync_s] before it runs, held by a busy wait that
   lets the server's other threads run at each turn.  Fault_fs's
   latency sleeps instead, and on a shared virtual machine a 1 ms sleep
   wakes late: 3.2 ms at p99 and 8.4 ms at p99.9, which then set
   update-rpc's p99 from run to run.  Spinning held 1 ms to 1.6 ms at
   p99. *)
let fixed_flush (fs : Fs.t) =
  let hold sync () =
    (* Unix.gettimeofday, not [now]: called directly it returns an
       unboxed float, so the loop allocates nothing and adds nothing to
       the server's GC figures. *)
    let deadline = Unix.gettimeofday () +. sync_s in
    while Unix.gettimeofday () < deadline do
      Thread.yield ()
    done;
    sync ()
  in
  let writer (w : Fs.writer) = { w with Fs.w_sync = hold w.Fs.w_sync } in
  {
    fs with
    Fs.create = (fun f -> writer (fs.Fs.create f));
    open_append = (fun f -> writer (fs.Fs.open_append f));
    open_random =
      (fun f ->
        let r = fs.Fs.open_random f in
        { r with Fs.rw_sync = hold r.Fs.rw_sync });
  }

(* A fresh store with the fixed flush time.  In a traced run the
   served engine sees it through the timing decorator. *)
let make_store ?(decorate = true) o =
  let store = Mem.create_store ~seed:1 () in
  let fs = fixed_flush (Mem.fs store) in
  (store, if decorate && o.traced then Tracing.fs fs else fs)

let listen st =
  let serve tr =
    let conn = st.conns in
    st.conns <- st.conns + 1;
    let tr = if st.o.traced then Tracing.server_transport ~conn tr else tr in
    Proto.serve (engine st) tr
  in
  st.listener <- Some (Rpc.Socket.listen ~path:st.o.socket serve)

let stop_listening st =
  Option.iter Rpc.Socket.shutdown st.listener;
  st.listener <- None

(* ------------------------------------------------------------------ *)
(* Set-up: open an empty store, load the generated entries as one
   batch, write the initial checkpoint; timed after a full
   compaction. *)

let setup_once ?decorate o config updates =
  Gc.compact ();
  let t0 = now () in
  let store, fs = make_store ?decorate o in
  let ns = Ns.open_exn ~config fs in
  Ns.Db.update_batch (Ns.db ns) updates;
  Ns.checkpoint ns;
  let dt = now () -. t0 in
  (store, fs, ns, dt)

let read_entries n =
  List.init n (fun _ ->
      let line = input_line stdin in
      match String.index_opt line '\t' with
      | None -> failwith "bad entry line"
      | Some i ->
        let p = String.sub line 0 i and v = String.sub line (i + 1) (String.length line - i - 1) in
        (match Path.of_string p with Ok p -> (p, v) | Error e -> failwith ("bad name: " ^ e)))

(* [w.setups] set-ups, [gap_s] apart; the last one is kept. *)
let setups o config updates =
  let times = ref [] and last = ref None in
  for _ = 1 to o.w.setups do
    (match !last with
    | Some (_, _, ns) ->
      Ns.close ns;
      Unix.sleepf o.w.gap_s
    | None -> ());
    last := None;
    let store, fs, ns, dt = setup_once o config updates in
    times := dt :: !times;
    last := Some (store, fs, ns)
  done;
  match !last with
  | Some (store, fs, ns) -> (store, fs, ns, List.rev !times)
  | None -> failwith "no set-up"

(* ------------------------------------------------------------------ *)
(* Slices: [start] reads every counter, [stop] reads them again and adds
   the differences to the slice mode's sums, [report] returns a mode's
   sums.  Mode 1 is a traced slice, mode 0 an untraced one. *)

let pickle_counts () =
  ( Pickle.Counters.pickle_ops () + Pickle.Counters.unpickle_ops (),
    Pickle.Counters.bytes_pickled () + Pickle.Counters.bytes_unpickled () )

(* Every counter a slice is measured by.  The lock-wait summary sorts
   every sample the registry holds, so only traced slices read it. *)
let reading st ~traced =
  let s = Ns.stats (engine st) in
  let ph = s.Smalldb.phase in
  let pops, pbytes = pickle_counts () in
  let gc = Gc.quick_stat () in
  let lock =
    if traced then Metrics.merged_summary "sdb_lock_wait_seconds"
    else Sdb_util.Histogram.empty_snapshot
  in
  [
    ("window_s", now ());
    ("updates", float_of_int s.Smalldb.updates_committed);
    ("ckpts", float_of_int s.Smalldb.checkpoints_written);
    ("verify_s", ph.Smalldb.verify_s);
    ("pickle_s", ph.Smalldb.pickle_s);
    ("log_s", ph.Smalldb.log_s);
    ("apply_s", ph.Smalldb.apply_s);
    ("ckpt_pickle_s", ph.Smalldb.ckpt_pickle_s);
    ("ckpt_write_s", ph.Smalldb.ckpt_write_s);
    ("pickle_ops", float_of_int pops);
    ("pickle_bytes", float_of_int pbytes);
    ("minor_words", gc.Gc.minor_words);
    ("major_gcs", float_of_int gc.Gc.major_collections);
    ("lock_wait_n", float_of_int lock.Sdb_util.Histogram.s_count);
    ("lock_wait_s", lock.Sdb_util.Histogram.s_total);
  ]

let sums = [| []; [] |]
let started = ref None

let start st ~traced =
  Atomic.set Tracing.enabled traced;
  started := Some (traced, reading st ~traced)

let stop st =
  Atomic.set Tracing.enabled false;
  match !started with
  | None -> failwith "stop without start"
  | Some (traced, r0) ->
    started := None;
    let r1 = reading st ~traced in
    let mode = if traced then 1 else 0 in
    sums.(mode) <-
      List.map2
        (fun (k, a) (_, b) ->
          (k, (b -. a) +. Option.value ~default:0.0 (List.assoc_opt k sums.(mode))))
        r0 r1

let report st mode =
  let a name = Tracing.agg name in
  let agg_fields prefix name =
    let x = a name in
    [
      (prefix ^ "_n", string_of_int x.Tracing.n);
      (prefix ^ "_s", fnum x.Tracing.total_s);
      (prefix ^ "_bytes", string_of_int x.Tracing.bytes);
    ]
  in
  let intervals = Tracing.checkpoint_intervals () in
  List.map (fun (k, v) -> (k, fnum v)) sums.(mode)
  @ [
      ("top_heap_words", string_of_int (Gc.quick_stat ()).Gc.top_heap_words);
      (* What serving has added to the heap: the database and whatever
         the program keeps per request. *)
      ("serving_words", string_of_int (live_words () - st.inputs_words));
      ("ckpt_intervals", floats_to_string (List.concat_map (fun (x, y) -> [ x; y ]) intervals));
    ]
  @ agg_fields "srv_lookup" "rpc.server.lookup"
  @ agg_fields "srv_set" "rpc.server.set_value"
  @ agg_fields "wal_write" "storage.write.wal"
  @ agg_fields "wal_sync" "storage.sync.wal"
  @ agg_fields "ckpt_write" "storage.write.ckpt"
  @ agg_fields "ckpt_sync" "storage.sync.ckpt"
  @ agg_fields "meta_write" "storage.write.meta"
  @ agg_fields "meta_sync" "storage.sync.meta"

(* ------------------------------------------------------------------ *)
(* Direct probes of the query layers, on the live state, no load
   running: Nameserver.lookup (Shared lock + tree walk) against
   Ns_data.pfind (the walk alone) on the same names. *)

let probe st paths =
  let ns = engine st in
  let tree = Ns.Db.query (Ns.db ns) (fun s -> s) in
  let reps = 5 in
  let time f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = now () in
      List.iter f paths;
      let dt = now () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. float_of_int (max 1 (List.length paths))
  in
  let lookup_s = time (fun p -> ignore (Ns.lookup ns p : string option)) in
  let pfind_s =
    time (fun p -> ignore (Sdb_nameserver.Ns_data.pfind tree p : Sdb_nameserver.Ns_data.pnode option))
  in
  [ ("lookup_s", fnum lookup_s); ("pfind_s", fnum pfind_s) ]

(* The same number of set-ups as at the start, at the end of the run;
   the served instance is closed first, and the server serves nothing
   afterwards. *)
let final_setups st =
  stop_listening st;
  Ns.close (engine st);
  st.served <- None;
  Unix.sleepf st.o.w.gap_s;
  let _, _, ns, times = setups st.o st.config st.updates in
  Ns.close ns;
  [ ("setup_s", floats_to_string times) ]

(* Space: the store's bytes against the live user bytes it holds. *)
let space st =
  let live =
    Ns.enumerate (engine st) Path.root
    |> List.fold_left
         (fun acc (p, v) -> match v with Some v -> acc + user_bytes p v | None -> acc)
         0
  in
  [ ("store_bytes", string_of_int (Mem.total_bytes st.store)); ("live_bytes", string_of_int live) ]

(* Crash the store (unflushed bytes are lost, in-flight pages may
   tear), then reopen it [k] times, each after a fresh crash, [gap_s]
   apart, and serve the last instance.  Each reopen is timed after a
   full compaction.  The clients must connect again afterwards. *)
let reopen st k ~gap_s =
  stop_listening st;
  Mem.crash st.store ~mode:Mem.Torn;
  let runs =
    List.init k (fun i ->
        if i > 0 then begin
          Unix.sleepf gap_s;
          Mem.crash st.store ~mode:Mem.Clean
        end;
        (* The previous instance is dropped, not closed: the crash has
           invalidated its handles. *)
        st.served <- None;
        Gc.compact ();
        let before = Fs.Counters.copy st.fs.Fs.counters in
        let t0 = now () in
        let ns = Ns.open_exn ~config:st.config st.fs in
        let dt = now () -. t0 in
        let d = Fs.Counters.diff ~after:st.fs.Fs.counters ~before in
        st.served <- Some ns;
        let s = Ns.stats ns in
        ( dt,
          s.Smalldb.phase.Smalldb.restore_s,
          s.Smalldb.phase.Smalldb.replay_s,
          float_of_int s.Smalldb.recovery.Smalldb.replayed,
          float_of_int d.Fs.Counters.bytes_read ))
  in
  listen st;
  runs

(* The final crash, after the window: every reopen's phases. *)
let restart st =
  let runs = reopen st st.o.w.reopens ~gap_s:st.o.w.gap_s in
  let col f = floats_to_string (List.map f runs) in
  [
    ("restart_s", col (fun (a, _, _, _, _) -> a));
    ("restore_s", col (fun (_, b, _, _, _) -> b));
    ("replay_s", col (fun (_, _, c, _, _) -> c));
    ("replayed", col (fun (_, _, _, d, _) -> d));
    ("bytes_read", col (fun (_, _, _, _, e) -> e));
  ]

(* The samples taken after each slice, no load running, so they spread
   over the run: crash-reopens of the served store (whose log holds the
   updates since the last checkpoint), checkpoints of it, and set-ups
   from scratch on throwaway stores. *)
let maint st =
  let reopens = reopen st st.o.w.slice_reopens ~gap_s:0.0 in
  let k = st.o.w.slice_checkpoints in
  let checkpoints =
    List.init k (fun _ ->
        Gc.compact ();
        let t0 = now () in
        Ns.checkpoint (engine st);
        now () -. t0)
  in
  let setups =
    List.init k (fun _ ->
        let _, _, ns, dt = setup_once ~decorate:false st.o st.config st.updates in
        Ns.close ns;
        dt)
  in
  [
    ("restart_s", floats_to_string (List.map (fun (a, _, _, _, _) -> a) reopens));
    ("ckpt_s", floats_to_string checkpoints);
    ("setup_s", floats_to_string setups);
  ]

(* ------------------------------------------------------------------ *)

let main o =
  Trace.set_sink (Some (Trace.Slow.install ~capacity:trace_ring ~threshold_s:trace_slow_s));
  let config =
    {
      Smalldb.default_config with
      group_commit = o.w.group_commit;
      policy = o.w.policy;
      read_path = `Locked;
    }
  in
  let n =
    match String.split_on_char ' ' (input_line stdin) with
    | [ "load"; n ] -> int_of_string n
    | _ -> failwith "expected: load N"
  in
  let updates = List.map (fun (p, v) -> Ns.Set_value (p, Some v)) (read_entries n) in
  (* The inputs stay live for later set-ups; the database's footprint is
     what the set-up adds on top of them. *)
  let inputs_words = live_words () in
  let store, fs, ns, times = setups o config updates in
  let st =
    { o; config; store; fs; served = Some ns; listener = None; conns = 0; updates; inputs_words }
  in
  listen st;
  reply
    [ ("setup_s", floats_to_string times); ("db_words", string_of_int (live_words () - inputs_words)) ];
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
      let continue fields =
        reply fields;
        loop ()
      in
      match String.split_on_char ' ' line with
      | [ "start"; t ] ->
        start st ~traced:(t = "1");
        continue [ ("ok", "1") ]
      | [ "stop" ] ->
        stop st;
        continue [ ("ok", "1") ]
      | [ "report"; t ] -> continue (report st (if t = "1" then 1 else 0))
      | [ "probe"; k ] ->
        let paths =
          List.init (int_of_string k) (fun _ ->
              match Path.of_string (input_line stdin) with Ok p -> p | Error e -> failwith e)
        in
        continue (probe st paths)
      | [ "maint" ] -> continue (maint st)
      | [ "setups" ] -> continue (final_setups st)
      | [ "space" ] -> continue (space st)
      | [ "restart" ] -> continue (restart st)
      | [ "quit" ] -> ()
      | _ -> continue [ ("error", "unknown-command") ])
  in
  loop ();
  stop_listening st;
  Option.iter Ns.close st.served;
  if o.traced then Tracing.write_spans o.spans_file;
  reply [ ("bye", "1") ]
