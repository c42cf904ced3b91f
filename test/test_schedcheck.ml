(* Schedule-exploration suite: the explorer finds (and replays) a
   seeded lock-order deadlock, and the recursive read passes on the
   shipped protocol; the other engine critical sections pass their
   bounded interleaving spaces exhaustively; and the harness itself is
   checked to still catch a seeded bug and to be deterministic. *)

module Sched = Sdb_schedcheck.Schedcheck
module Scen = Sdb_schedcheck.Scenarios

let assert_passed name outcome =
  match outcome with
  | Sched.Passed { executions } ->
    Printf.printf "%s: %d schedules\n%!" name executions;
    executions
  | o -> Alcotest.failf "%s did not pass:\n%s" name (Sched.pp_outcome o)

(* --- a seeded deadlock is found, replayably ---------------------- *)

(* Two threads take two mutexes in opposite order: the classic
   lock-order inversion, which deadlocks only on the schedule that
   preempts between the two acquisitions. *)
let opposite_order () =
  let a = Sched.Mutex.create "a" and b = Sched.Mutex.create "b" in
  let take first second () =
    Sched.Mutex.lock first;
    Sched.Mutex.lock second;
    Sched.Mutex.unlock second;
    Sched.Mutex.unlock first
  in
  Sched.scenario [ ("ab", take a b); ("ba", take b a) ]

let test_lock_order_deadlock () =
  match Sched.explore opposite_order with
  | Sched.Deadlocked r ->
    (* Both threads must be stuck, each holding the mutex the other
       waits for. *)
    Alcotest.(check int) "both threads blocked" 2 (List.length r.Sched.r_blocked);
    (* The schedule is a reproducible artifact: replaying it must hit
       the same deadlock. *)
    (match Sched.replay opposite_order ~schedule:r.Sched.r_schedule with
    | Sched.Deadlocked r', _ ->
      Alcotest.(check (list int))
        "replay follows the same schedule" r.Sched.r_schedule r'.Sched.r_schedule
    | o, _ ->
      Alcotest.failf "replay did not deadlock:\n%s" (Sched.pp_outcome o))
  | o ->
    Alcotest.failf
      "opposite lock order should deadlock under some schedule:\n%s"
      (Sched.pp_outcome o)

let test_fixed_passes () =
  let n = assert_passed "recursive_read" (Sched.explore Scen.recursive_read) in
  Alcotest.(check bool) "more than one interleaving explored" true (n > 1)

(* --- the other critical sections, exhaustively -------------------- *)

let test_fresh_reader_gate () =
  ignore (assert_passed "fresh_reader_gate" (Sched.explore Scen.fresh_reader_gate))

let test_upgrade_vs_readers () =
  ignore
    (assert_passed "upgrade_vs_readers(2)"
       (Sched.explore (Scen.upgrade_vs_readers ~readers:2)))

(* The shipped coordinator over the virtual lock.  Two grouped and
   three solo updaters are exhausted.  Three grouped ones are beyond
   exhaustive reach (more than 20M schedules), so they run every
   schedule with at most four preemptions, and the run must reach the
   shapes that need three: a group of three, and a group of two still
   committing while the third updater forms the next group behind it
   (late arrival, the slot wait, park and wake). *)
let test_group_commit () =
  ignore (assert_passed "group_commit(2)" (Sched.explore (Scen.group_commit ~updaters:2)));
  ignore
    (assert_passed "solo commit(3)"
       (Sched.explore (Scen.group_commit ~grouped:false ~updaters:3)));
  let seen = Hashtbl.create 8 in
  let observe shape = Hashtbl.replace seen shape () in
  ignore
    (assert_passed "group_commit(3), <= 4 preemptions"
       (Sched.explore ~max_preemptions:4 ~max_schedules:2_000_000
          (Scen.group_commit ~observe ~updaters:3)));
  List.iter
    (fun shape -> Alcotest.(check bool) ("reached: " ^ shape) true (Hashtbl.mem seen shape))
    [ "group of 2"; "group of 3"; "prepared while a group of 2+ commits" ]

(* The linger over the shipped coordinator: updater 0 commits more than
   once, so the coordinator learns its gap and a later leader awaits it.
   Two updaters with updater 0 committing twice are exhausted: every
   linger there awaits a caller that has finished, which must end at its
   deadline with the leader committing alone; so are they when both
   insert if absent, where the linger meets refusals.  Updater 0
   committing three times is beyond exhaustive reach; its
   preemption-bounded run must reach an awaited caller joining, and a
   leader that awaited one in vain. *)
let test_linger () =
  let seen = Hashtbl.create 8 in
  let observe shape = Hashtbl.replace seen shape () in
  ignore
    (assert_passed "group_commit(2, updater 0 twice)"
       (Sched.explore ~max_schedules:1_000_000
          (Scen.group_commit ~rounds:2 ~observe ~updaters:2)));
  Alcotest.(check bool)
    "reached: lingered for a caller that never came back, committed alone" true
    (Hashtbl.mem seen "lingered for a caller that never came back, committed alone");
  ignore
    (assert_passed "group_commit(2, updater 0 twice, 2 inserts)"
       (Sched.explore (Scen.group_commit ~rounds:2 ~inserts:2 ~observe ~updaters:2)));
  ignore
    (assert_passed "group_commit(2, updater 0 three times), <= 4 preemptions"
       (Sched.explore ~max_preemptions:4
          (Scen.group_commit ~rounds:3 ~observe ~updaters:2)));
  List.iter
    (fun shape -> Alcotest.(check bool) ("reached: " ^ shape) true (Hashtbl.mem seen shape))
    [ "lingered, then a group of 2"; "lingered, committed alone"; "refused in a group of 2" ]

(* A fold that raises fails its group before the commit point: no
   flush, no publish, every member woken with the exception, the lock
   drained and the slot released — exhausted over two updaters in both
   commit modes, and reaching the group of two that fails whole. *)
let test_raising_fold () =
  let seen = Hashtbl.create 8 in
  let observe shape = Hashtbl.replace seen shape () in
  ignore
    (assert_passed "group_commit(2, fold raises)"
       (Sched.explore (Scen.group_commit ~raising:0 ~observe ~updaters:2)));
  ignore
    (assert_passed "solo commit(2, fold raises)"
       (Sched.explore (Scen.group_commit ~grouped:false ~raising:1 ~updaters:2)));
  List.iter
    (fun shape -> Alcotest.(check bool) ("reached: " ^ shape) true (Hashtbl.mem seen shape))
    [ "fold raised in a group of 1"; "fold raised in a group of 2"; "group of 1" ]

(* Mixed groups: checked "insert if absent" updaters on one key beside
   unconditional ones.  Every precondition sees exactly the commits
   staged before it, a refusal returns only once the commits it saw
   are published, exactly one insert commits, and a group that admits
   nobody takes no flush.  Two updaters — one insert or two — and three
   solo ones are exhausted; three grouped ones, like those of
   [test_group_commit], are beyond exhaustive reach, so they run every
   schedule with at most four preemptions, which must reach a group of
   three whose fold refuses the second insert. *)
let test_mixed_group () =
  let seen = Hashtbl.create 8 in
  let observe shape = Hashtbl.replace seen shape () in
  ignore
    (assert_passed "group_commit(2, 1 insert)"
       (Sched.explore (Scen.group_commit ~inserts:1 ~observe ~updaters:2)));
  ignore
    (assert_passed "group_commit(2, 2 inserts)"
       (Sched.explore (Scen.group_commit ~inserts:2 ~observe ~updaters:2)));
  ignore
    (assert_passed "solo commit(3, 2 inserts)"
       (Sched.explore (Scen.group_commit ~grouped:false ~inserts:2 ~updaters:3)));
  ignore
    (assert_passed "group_commit(3, 2 inserts), <= 4 preemptions"
       (Sched.explore ~max_preemptions:4 ~max_schedules:2_000_000
          (Scen.group_commit ~inserts:2 ~observe ~updaters:3)));
  List.iter
    (fun shape -> Alcotest.(check bool) ("reached: " ^ shape) true (Hashtbl.mem seen shape))
    [ "refused in a group of 2"; "refused in a group of 3" ]

(* A precondition that raises fails only its own member: the rest of
   its group commits, in both commit modes. *)
let test_raising_precondition () =
  let seen = Hashtbl.create 8 in
  let observe shape = Hashtbl.replace seen shape () in
  ignore
    (assert_passed "group_commit(2, precondition raises)"
       (Sched.explore (Scen.group_commit ~raising_precondition:0 ~observe ~updaters:2)));
  ignore
    (assert_passed "solo commit(2, precondition raises)"
       (Sched.explore (Scen.group_commit ~grouped:false ~raising_precondition:1 ~updaters:2)));
  List.iter
    (fun shape -> Alcotest.(check bool) ("reached: " ^ shape) true (Hashtbl.mem seen shape))
    [ "precondition raised in a group of 2"; "precondition raised in a group of 1" ]

let test_replica_outbox () =
  ignore
    (assert_passed "replica_outbox(3,1)"
       (Sched.explore (Scen.replica_outbox ~pushes:3 ~capacity:1)));
  ignore
    (assert_passed "replica_outbox(3,2)"
       (Sched.explore (Scen.replica_outbox ~pushes:3 ~capacity:2)))

let test_failure_detector () =
  (* Mixed outcomes around aging ticks: the revive/demote rules must
     hold in every interleaving of probe completion vs. ticker. *)
  ignore
    (assert_passed "failure_detector(ok,fail)"
       (Sched.explore (Scen.failure_detector ~probes:[ true; false ])));
  ignore
    (assert_passed "failure_detector(fail,ok)"
       (Sched.explore (Scen.failure_detector ~probes:[ false; true ])));
  ignore
    (assert_passed "failure_detector(fail,fail)"
       (Sched.explore (Scen.failure_detector ~probes:[ false; false ])))

let mentions ~sub text =
  let n = String.length sub and m = String.length text in
  let rec at i = i + n <= m && (String.sub text i n = sub || at (i + 1)) in
  at 0

let assert_caught name make ~mentioning =
  match Sched.explore make with
  | Sched.Violated { exn_text; report } ->
    Alcotest.(check bool)
      (name ^ ": the violation names the bug") true
      (List.exists (fun sub -> mentions ~sub exn_text) mentioning);
    (* The failing schedule is a reproducible artifact. *)
    (match Sched.replay make ~schedule:report.Sched.r_schedule with
    | Sched.Violated _, _ -> ()
    | o, _ -> Alcotest.failf "%s: replay did not violate:\n%s" name (Sched.pp_outcome o))
  | o -> Alcotest.failf "%s must be caught:\n%s" name (Sched.pp_outcome o)

(* A fold that checks every precondition against its group's base
   state, not the state folded so far, lets two inserts in one group
   both commit. *)
let test_base_checks_caught () =
  assert_caught "preconditions checked at the group's base"
    (Scen.group_commit ~checks_at_base:true ~inserts:2 ~updaters:2)
    ~mentioning:[ "checked inserts committed" ]

(* --- detector of the detector ------------------------------------- *)

let test_broken_writer_caught () =
  match Sched.explore Scen.upgrade_vs_readers_broken with
  | Sched.Violated { exn_text; report } ->
    Alcotest.(check bool)
      "the violation names the torn read" true
      (let mentions sub =
         let n = String.length sub and m = String.length exn_text in
         let rec at i = i + n <= m && (String.sub exn_text i n = sub || at (i + 1)) in
         at 0
       in
       mentions "torn read" || mentions "odd intermediate");
    (* And it too replays deterministically. *)
    (match Sched.replay Scen.upgrade_vs_readers_broken ~schedule:report.Sched.r_schedule with
    | Sched.Violated _, _ -> ()
    | o, _ -> Alcotest.failf "replay did not violate:\n%s" (Sched.pp_outcome o))
  | o ->
    Alcotest.failf
      "mutation under Update without upgrade must be caught:\n%s"
      (Sched.pp_outcome o)

(* --- harness behavior --------------------------------------------- *)

let test_deterministic () =
  let once () = Sched.explore (Scen.group_commit ~updaters:2) in
  match (once (), once ()) with
  | Sched.Passed { executions = a }, Sched.Passed { executions = b } ->
    Alcotest.(check int) "same schedule count on re-run" a b
  | o, _ -> Alcotest.failf "expected Passed:\n%s" (Sched.pp_outcome o)

let test_schedule_bound () =
  match Sched.explore ~max_schedules:1 Scen.recursive_read with
  | Sched.Schedule_bound_exceeded { executions } ->
    Alcotest.(check int) "stopped at the bound" 1 executions
  | o -> Alcotest.failf "expected Schedule_bound_exceeded:\n%s" (Sched.pp_outcome o)

(* The preemption bound only prunes: the space grows with the bound up
   to the exhaustive one, and a seeded bug that needs one preemption is
   caught within it and replays under the same bound. *)
let test_preemption_bound () =
  let count ?max_preemptions () =
    match Sched.explore ?max_preemptions (Scen.group_commit ~updaters:2) with
    | Sched.Passed { executions } -> executions
    | o -> Alcotest.failf "expected Passed:\n%s" (Sched.pp_outcome o)
  in
  let full = count () in
  let k0 = count ~max_preemptions:0 () and k2 = count ~max_preemptions:2 () in
  Alcotest.(check bool) "0 < 2 < unbounded" true (k0 < k2 && k2 < full);
  Alcotest.(check int) "a bound no schedule reaches is exhaustive" full
    (count ~max_preemptions:1000 ());
  match Sched.explore ~max_preemptions:1 Scen.upgrade_vs_readers_broken with
  | Sched.Violated { report; _ } -> (
    match
      Sched.replay ~max_preemptions:1 Scen.upgrade_vs_readers_broken
        ~schedule:report.Sched.r_schedule
    with
    | Sched.Violated _, _ -> ()
    | o, _ -> Alcotest.failf "replay did not violate:\n%s" (Sched.pp_outcome o))
  | o -> Alcotest.failf "expected a violation within 1 preemption:\n%s" (Sched.pp_outcome o)

let () =
  Alcotest.run "schedcheck"
    [
      ( "regression",
        [
          Alcotest.test_case "lock-order inversion deadlocks (replayable)" `Quick
            test_lock_order_deadlock;
          Alcotest.test_case "fixed protocol passes exhaustively" `Quick
            test_fixed_passes;
        ] );
      ( "critical-sections",
        [
          Alcotest.test_case "fresh reader gated during drain" `Quick
            test_fresh_reader_gate;
          Alcotest.test_case "upgrade vs readers: no torn reads" `Quick
            test_upgrade_vs_readers;
          Alcotest.test_case "group commit: seal/flush/wake" `Quick
            test_group_commit;
          Alcotest.test_case "group commit: linger for callers" `Quick test_linger;
          Alcotest.test_case "group commit: mixed group" `Quick test_mixed_group;
          Alcotest.test_case "group commit: raising precondition" `Quick
            test_raising_precondition;
          Alcotest.test_case "group commit: raising fold fails its group" `Quick
            test_raising_fold;
          Alcotest.test_case "replica outbox hand-off" `Quick test_replica_outbox;
          Alcotest.test_case "failure detector: revive only by heartbeat" `Quick
            test_failure_detector;
        ] );
      ( "harness",
        [
          Alcotest.test_case "seeded bug is caught" `Quick test_broken_writer_caught;
          Alcotest.test_case "checks at group base caught" `Quick
            test_base_checks_caught;
          Alcotest.test_case "exploration is deterministic" `Quick test_deterministic;
          Alcotest.test_case "schedule bound reported" `Quick test_schedule_bound;
          Alcotest.test_case "preemption bound prunes, still catches" `Quick
            test_preemption_bound;
        ] );
    ]
