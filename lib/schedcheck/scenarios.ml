(* The engine's critical sections under the virtual scheduler.  The
   lock scenarios instantiate Sdb_vlock.Vlock_core.Make over Schedcheck's
   primitives and the commit scenario Sdb_commit.Commit_core.Make over
   the same primitives and that virtual lock, so the protocols being
   exhausted are the ones the engine ships; the outbox scenario models
   the sender hand-off from lib/replica at the granularity its mutex
   gives it. *)

open Sdb_vlock.Vlock_core

module Vsync = struct
  type mutex = Schedcheck.Mutex.t
  type cond = Schedcheck.Cond.t

  let counter = ref 0

  let make_mutex () =
    incr counter;
    Schedcheck.Mutex.create (Printf.sprintf "vlock.mutex/%d" !counter)

  let make_cond () =
    incr counter;
    Schedcheck.Cond.create (Printf.sprintf "vlock.changed/%d" !counter)

  let lock = Schedcheck.Mutex.lock
  let unlock = Schedcheck.Mutex.unlock
  let wait = Schedcheck.Cond.wait
  let broadcast = Schedcheck.Cond.broadcast
  let self = Schedcheck.self

  (* What Commit_core.MU adds: named mutexes; sections as one scheduling
     point each (they touch only state this mutex guards, see
     [Schedcheck.Mutex.atomically]); plain cells; and a virtual clock.
     Time moves only where a scenario moves it (a log write's fsync, a
     caller's pause between commits) and by one [tick] per poll of a
     linger, which is a scheduling point, so a linger polls a bounded
     number of times.  Scenarios reset the clock and the poll count per
     execution. *)
  type t = mutex
  type 'a cell = 'a ref

  let make = Schedcheck.Mutex.create

  let with_lock m f =
    let r = ref None in
    Schedcheck.Mutex.atomically m "commit.section" (fun () -> r := Some (f ()));
    Option.get !r

  let cell ~by:_ ~name:_ v = ref v
  let get = ( ! )
  let set = ( := )
  let clock = ref 0.0
  let tick = Sdb_commit.Commit_core.max_group_delay /. 8.
  let polls = ref 0
  let now () = !clock

  let before t =
    clock := !clock +. tick;
    incr polls;
    !clock < t

  let yield () = Schedcheck.yield "linger"
end

module V = Sdb_vlock.Vlock_core.Make (Vsync)

let check cond msg = if not cond then failwith msg

(* Holds after every step of every schedule. *)
let lock_invariant v () =
  let i = V.inspect v in
  check
    (not (i.i_exclusive && i.i_readers > 0))
    "vlock: exclusive held while readers active";
  check
    (not (i.i_exclusive && i.i_update))
    "vlock: exclusive and update held simultaneously";
  check (i.i_hold_sum = i.i_readers)
    "vlock: reader registry out of sync with n_readers";
  check (i.i_readers >= 0) "vlock: negative reader count"

(* Holds once every modeled thread has completed. *)
let drained v () =
  let i = V.inspect v in
  check
    (i.i_readers = 0 && (not i.i_update) && (not i.i_exclusive)
    && (not i.i_upgrade_pending)
    && i.i_hold_sum = 0)
    "vlock: not fully released at end"

(* ------------------------------------------------------------------ *)

let recursive_read () =
  let v = V.create () in
  let reader () =
    V.acquire v Shared;
    Schedcheck.yield "reading";
    (* The enquiry path re-entering Shared: parking it behind the
       upgrader's pending upgrade, while the upgrader drains this very
       thread, would deadlock both. *)
    V.acquire v Shared;
    V.release v Shared;
    V.release v Shared
  in
  let upgrader () =
    V.acquire v Update;
    V.upgrade v;
    V.release v Exclusive
  in
  Schedcheck.scenario
    ~invariant:(lock_invariant v)
    ~finale:(drained v)
    [ ("reader", reader); ("upgrader", upgrader) ]

let fresh_reader_gate () =
  let v = V.create () in
  let admitted_mid_drain = ref false in
  let nested () =
    V.acquire v Shared;
    Schedcheck.yield "between holds";
    V.acquire v Shared;
    V.release v Shared;
    V.release v Shared
  in
  let fresh () =
    V.acquire v Shared;
    (* Runs atomically with the admission: a first-time reader admitted
       while the upgrade is still draining would observe the flag. *)
    if (V.inspect v).i_upgrade_pending then admitted_mid_drain := true;
    V.release v Shared
  in
  let upgrader () =
    V.acquire v Update;
    V.upgrade v;
    V.release v Exclusive
  in
  Schedcheck.scenario
    ~invariant:(lock_invariant v)
    ~finale:(fun () ->
      drained v ();
      check
        (not !admitted_mid_drain)
        "vlock: first-time reader admitted during an upgrade drain")
    [ ("nested", nested); ("fresh", fresh); ("upgrader", upgrader) ]

let upgrade_vs_readers ~readers () =
  let v = V.create () in
  let data = ref 0 in
  let reader name () =
    V.acquire v Shared;
    let a = !data in
    Schedcheck.yield "between reads";
    let b = !data in
    V.release v Shared;
    check (a = b) (name ^ ": torn read (value changed under Shared)");
    check (a mod 2 = 0) (name ^ ": observed odd intermediate state")
  in
  let writer () =
    V.acquire v Update;
    (* Reads may proceed here — that is the point of Update. *)
    Schedcheck.yield "deliberating";
    V.upgrade v;
    incr data;
    Schedcheck.yield "mid-mutation";
    incr data;
    V.release v Exclusive
  in
  Schedcheck.scenario
    ~invariant:(lock_invariant v)
    ~finale:(fun () ->
      drained v ();
      check (!data = 2) "writer: both increments applied")
    (List.init readers (fun i ->
         let name = Printf.sprintf "reader%d" i in
         (name, reader name))
    @ [ ("writer", writer) ])

let upgrade_vs_readers_broken () =
  let v = V.create () in
  let data = ref 0 in
  let reader () =
    V.acquire v Shared;
    let a = !data in
    Schedcheck.yield "between reads";
    let b = !data in
    V.release v Shared;
    check (a = b) "reader: torn read (mutation under Update, no upgrade)";
    check (a mod 2 = 0) "reader: observed odd intermediate state"
  in
  let writer () =
    (* The bug this scenario must catch: mutating without the upgrade. *)
    V.acquire v Update;
    incr data;
    Schedcheck.yield "mid-mutation";
    incr data;
    V.release v Update
  in
  Schedcheck.scenario
    ~invariant:(lock_invariant v)
    [ ("reader", reader); ("writer", writer) ]

(* ------------------------------------------------------------------ *)

module C = Sdb_commit.Commit_core.Make (Vsync) (V)

exception Fold_failed
exception Precondition_raised

(* The engine side is modeled — the state is the list of committed
   commits in LSN order, the fold checks each member's precondition
   against it and computes the group's LSNs, the log write is one
   scheduling point that takes [fsync_s] of virtual time — and
   everything else (join, linger, seal, the commit slot, park and wake,
   the lock hand-offs) is the shipped coordinator.  The last [inserts]
   updaters insert if no insert is present, and updater
   [raising_precondition] carries a precondition that raises; the rest
   commit unconditionally.  Updater 0 commits [rounds] times, pausing
   [pause_s] between commits, so the coordinator learns its gap and a
   later leader may await it; once finished, it never comes back to a
   leader awaiting it.  The others commit once.  [observe] hears the
   shapes an execution reached, so a bounded exploration can show what
   it covered. *)
let fsync_s = 0.001
let pause_s = 0.0002

let group_commit ?(grouped = true) ?(checks_at_base = false) ?(inserts = 0) ?raising
    ?raising_precondition ?(rounds = 1) ?(observe = ignore) ~updaters () =
  Vsync.clock := 0.0;
  Vsync.polls := 0;
  let max_group_delay = Sdb_commit.Commit_core.max_group_delay in
  let v = V.create () in
  let c = C.create ~name:"sched" ~grouped v in
  (* Updater 0 makes commits 0 .. rounds - 1, updater i > 0 commit
     rounds + i - 1. *)
  let commits = updaters + rounds - 1 in
  let who k = if k < rounds then 0 else k - rounds + 1 in
  let inserter k = who k >= updaters - inserts in
  let db = ref [] and views = ref [] and staged = Array.make commits 0 and stage = ref 0 in
  let lsn = Array.make commits 0 and next_lsn = ref 0 in
  let finished = Array.make updaters false in
  let failed = Array.make commits false and doomed = Array.make commits false in
  let flushes = ref 0 and published = ref 0 and in_commit = ref 0 in
  let logged = ref [] and notified = ref [] and polled = ref 0 in
  (* The polls since the previous seal are this group leader's linger:
     leaders linger holding the slot, one at a time. *)
  let lingered group =
    let polls = !Vsync.polls - !polled in
    polled := !Vsync.polls;
    check
      (float_of_int (polls - 1) *. Vsync.tick <= max_group_delay)
      (Printf.sprintf "group-commit: a leader lingered %d polls" polls);
    if polls > 0 then
      observe
        (match group with
        | [ k ] when Array.for_all Fun.id (Array.mapi (fun i f -> f || i = who k) finished) ->
          "lingered for a caller that never came back, committed alone"
        | [ _ ] -> "lingered, committed alone"
        | _ -> Printf.sprintf "lingered, then a group of %d" (List.length group))
  in
  (* Each precondition sees the state folded so far — or, with
     [checks_at_base] (a seeded bug), the state before its group. *)
  let precondition state k =
    let view = if checks_at_base then !db else state in
    views := (k, view) :: !views;
    if Some (who k) = raising_precondition then
      Sdb_commit.Commit_core.Failed Precondition_raised
    else if List.exists inserter view then Refused
    else Pending
  in
  let engine =
    {
      Sdb_commit.Commit_core.size = (fun _ -> 1);
      fold =
        (fun () group ->
          check (V.inspect v).i_update "group-commit: fold without Update";
          lingered group;
          let n = List.length group in
          if List.exists (fun k -> Some (who k) = raising) group then begin
            List.iter (fun k -> doomed.(k) <- true) group;
            observe (Printf.sprintf "fold raised in a group of %d" n);
            raise Fold_failed
          end;
          let admitted, outcomes =
            List.fold_left_map
              (fun admitted k ->
                let checked = inserter k || Some (who k) = raising_precondition in
                match if checked then precondition (!db @ admitted) k else Pending with
                | Pending as o -> (admitted @ [ k ], o)
                | o ->
                  let why = if o = Refused then "refused" else "precondition raised" in
                  observe (Printf.sprintf "%s in a group of %d" why n);
                  (admitted, o))
              [] group
          in
          ((admitted, List.mapi (fun j k -> (k, !next_lsn + j + 1)) admitted), outcomes));
      log =
        (fun () group ->
          incr in_commit;
          check (!in_commit = 1) "group-commit: two groups committing at once";
          check (V.inspect v).i_update "group-commit: log write without Update";
          check (group <> []) "group-commit: flushed a group that admitted nobody";
          check
            (not (List.exists (fun k -> doomed.(k)) group))
            "group-commit: flushed a group whose fold raised";
          Schedcheck.yield "fsync";
          Vsync.clock := !Vsync.clock +. fsync_s;
          incr flushes;
          observe (Printf.sprintf "group of %d" (List.length group));
          logged := group);
      publish =
        (fun () (group, lsns) ->
          check (V.inspect v).i_exclusive "group-commit: publish without Exclusive";
          check (group = !logged) "group-commit: group changed after its flush";
          incr published;
          List.iter (fun (k, l) -> lsn.(k) <- l) lsns;
          db := !db @ group;
          next_lsn := !next_lsn + List.length lsns);
      notify =
        (fun () group _ ->
          (* Without the commit slot, the next commit may overtake a
             notification; with it, groups commit and notify in turn. *)
          if not grouped then decr in_commit;
          Schedcheck.yield "notify";
          notified := !notified @ group;
          if grouped then decr in_commit);
      member_failure = (fun () e -> e);
    }
  in
  let updater i () =
    for r = 0 to (if i = 0 then rounds else 1) - 1 do
      if r > 0 then Vsync.clock := !Vsync.clock +. pause_s;
      let k = if i = 0 then r else rounds + i - 1 in
      let prepare () =
        check (V.inspect v).i_update "group-commit: prepare without Update";
        if !in_commit > 0 && List.length !logged > 1 then
          observe "prepared while a group of 2+ commits";
        staged.(k) <- !stage;
        incr stage;
        k
      in
      match C.commit c engine () prepare with
      | `Committed -> check (lsn.(k) > 0) "group-commit: returned without an assigned LSN"
      | `Refused ->
        check (inserter k && lsn.(k) = 0) "group-commit: unconditional update refused";
        check
          (List.for_all (fun j -> lsn.(j) > 0) (List.assoc k !views))
          "group-commit: refused before the commits that refused it were published"
      | exception Fold_failed -> failed.(k) <- true
      | exception Precondition_raised ->
        check (Some i = raising_precondition && lsn.(k) = 0)
          "group-commit: another member's precondition raised here"
    done;
    finished.(i) <- true
  in
  Schedcheck.scenario
    ~invariant:(lock_invariant v)
    ~finale:(fun () ->
      drained v ();
      check (C.idle c) "group-commit: slot held or group forming at end";
      check (!flushes = !published) "group-commit: one flush per group violated";
      Array.iteri
        (fun k d ->
          check (failed.(k) = d)
            (Printf.sprintf "group-commit: commit %d's outcome disagrees with its fold" k);
          check ((not d) || lsn.(k) = 0)
            (Printf.sprintf "group-commit: commit %d published after its fold raised" k))
        doomed;
      let inserted = List.length (List.filter inserter !db) in
      check (inserts = 0 || inserted = 1)
        (Printf.sprintf "group-commit: %d checked inserts committed" inserted);
      (* A precondition sees exactly the commits staged before it. *)
      List.iter
        (fun (k, view) ->
          check
            (view = List.filter (fun j -> staged.(j) < staged.(k)) !db)
            (Printf.sprintf "group-commit: commit %d's precondition missed an earlier one" k))
        !views;
      let notified = List.map (fun k -> lsn.(k)) !notified in
      check
        ((if grouped then notified else List.sort compare notified)
        = List.init !next_lsn succ)
        "group-commit: LSNs not dense, or notified out of order";
      Array.iteri
        (fun i r -> check r (Printf.sprintf "group-commit: updater %d never woken" i))
        finished)
    (List.init updaters (fun i -> (Printf.sprintf "updater%d" i, updater i)))

(* ------------------------------------------------------------------ *)

let replica_outbox ~pushes ~capacity () =
  let m = Schedcheck.Mutex.create "outbox.mutex" in
  let c = Schedcheck.Cond.create "outbox.cond" in
  let q = Queue.create () in
  let stop = ref false in
  let dropped = ref 0 in
  let delivered = ref [] in
  let committer () =
    for i = 1 to pushes do
      Schedcheck.Mutex.atomically m "push" (fun () ->
          if Queue.length q >= capacity then incr dropped else Queue.push i q);
      Schedcheck.Cond.broadcast c
    done;
    Schedcheck.Mutex.atomically m "stop" (fun () -> stop := true);
    Schedcheck.Cond.broadcast c
  in
  let sender () =
    let running = ref true in
    while !running do
      Schedcheck.Mutex.lock m;
      while Queue.is_empty q && not !stop do
        Schedcheck.Cond.wait c m
      done;
      if Queue.is_empty q then begin
        (* stop observed with the queue drained *)
        running := false;
        Schedcheck.Mutex.unlock m
      end
      else begin
        let x = Queue.pop q in
        Schedcheck.Mutex.unlock m;
        (* The send itself runs outside the mutex. *)
        Schedcheck.yield "send";
        delivered := x :: !delivered
      end
    done
  in
  Schedcheck.scenario
    ~finale:(fun () ->
      let d = List.rev !delivered in
      let rec mono = function
        | a :: (b :: _ as t) -> a < b && mono t
        | _ -> true
      in
      check (mono d) "outbox: out-of-order delivery";
      check
        (List.length d + !dropped = pushes)
        "outbox: delivered + dropped <> pushed")
    [ ("committer", committer); ("sender", sender) ]

(* ------------------------------------------------------------------ *)

let failure_detector ~probes () =
  (* The real shipped detector ([lib/replica/detector.ml]) under the
     virtual scheduler: a prober thread runs a scripted sequence of
     heartbeat outcomes with a scheduling point while each probe is in
     flight, racing a ticker that advances virtual time and ages the
     detector.  The invariants are exactly the detector's contract:

     - the only transitions into Alive are caused by a probe success
       (so a peer never revives by aging — dead stays dead until a
       heartbeat actually answers), and
     - aging and failures only ever demote (alive → suspect → dead),
       so suspicion is never lost while a probe is still in flight. *)
  let module D = Sdb_replica.Detector in
  let m = Schedcheck.Mutex.create "detector.mutex" in
  let cfg =
    { D.heartbeat_interval_s = 1.0; suspect_after_s = 2.0; dead_after_s = 4.0 }
  in
  let now = ref 0.0 in
  let d = D.create ~now:!now cfg in
  let seen = ref [] in
  let note tr = match tr with None -> () | Some tr -> seen := tr :: !seen in
  let rank = function D.Alive -> 0 | D.Suspect -> 1 | D.Dead -> 2 in
  let prober () =
    List.iter
      (fun ok ->
        Schedcheck.Mutex.atomically m "probe start" (fun () ->
            D.probe_started d);
        (* The RPC is in flight: everything else may interleave here. *)
        Schedcheck.yield "probe in flight";
        Schedcheck.Mutex.atomically m "probe done" (fun () ->
            let t = !now in
            note (if ok then D.probe_succeeded d ~now:t
                  else D.probe_failed d ~now:t)))
      probes
  in
  let ticker () =
    for _ = 1 to 3 do
      Schedcheck.Mutex.atomically m "advance and tick" (fun () ->
          now := !now +. 2.5;
          note (D.tick d ~now:!now))
    done
  in
  let check_transitions () =
    List.iter
      (fun tr ->
        (match tr.D.tr_cause with
        | `Success -> ()
        | `Failure | `Timeout ->
          check
            (rank tr.D.tr_to > rank tr.D.tr_from)
            "detector: failure/aging transition did not demote");
        check
          (tr.D.tr_to <> D.Alive || tr.D.tr_cause = `Success)
          "detector: revived without a successful heartbeat")
      !seen
  in
  Schedcheck.scenario ~invariant:check_transitions
    ~finale:(fun () ->
      check_transitions ();
      (* The ticker alone pushed age past dead_after_s: unless the very
         last recorded outcome is a success, the peer must not be
         Alive at the end. *)
      match !seen with
      | { D.tr_cause = `Success; _ } :: _ -> ()
      | _ ->
        check
          (D.state d <> D.Alive || List.for_all (fun ok -> ok) probes
           && !seen = [])
          "detector: alive at end without a closing success")
    [ ("prober", prober); ("ticker", ticker) ]
