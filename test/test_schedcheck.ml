(* Schedule-exploration suite: the recursive-read deadlock is
   reproduced on the legacy gate and proven gone on the shipped
   protocol; the other engine critical sections pass their bounded
   interleaving spaces exhaustively; and the harness itself is checked
   to still catch a seeded bug and to be deterministic. *)

module Sched = Sdb_schedcheck.Schedcheck
module Scen = Sdb_schedcheck.Scenarios

let assert_passed name outcome =
  match outcome with
  | Sched.Passed { executions } ->
    Printf.printf "%s: %d schedules\n%!" name executions;
    executions
  | o -> Alcotest.failf "%s did not pass:\n%s" name (Sched.pp_outcome o)

(* --- the regression: the pre-fix gate deadlocks, replayably ------- *)

let test_legacy_deadlock () =
  match Sched.explore (Scen.recursive_read ~legacy:true) with
  | Sched.Deadlocked r ->
    (* Both threads must be stuck: the reader parked behind the pending
       upgrade, the upgrader draining the reader. *)
    Alcotest.(check int) "both threads blocked" 2 (List.length r.Sched.r_blocked);
    (* The schedule is a reproducible artifact: replaying it must hit
       the same deadlock. *)
    (match Sched.replay (Scen.recursive_read ~legacy:true) ~schedule:r.Sched.r_schedule with
    | Sched.Deadlocked r', _ ->
      Alcotest.(check (list int))
        "replay follows the same schedule" r.Sched.r_schedule r'.Sched.r_schedule
    | o, _ ->
      Alcotest.failf "replay did not deadlock:\n%s" (Sched.pp_outcome o))
  | o ->
    Alcotest.failf
      "legacy recursive read should deadlock under some schedule:\n%s"
      (Sched.pp_outcome o)

let test_fixed_passes () =
  let n = assert_passed "recursive_read(fixed)"
      (Sched.explore (Scen.recursive_read ~legacy:false))
  in
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
   (late arrival, the ticket slot, park and wake). *)
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

(* Two checked "insert if absent" updaters on one key: exactly one
   commits, alone and beside an unconditional updater that may group,
   in both commit modes. *)
let test_checked_inserts () =
  ignore
    (assert_passed "group_commit(2, 2 inserts)"
       (Sched.explore (Scen.group_commit ~inserts:2 ~updaters:2)));
  ignore
    (assert_passed "group_commit(3, 2 inserts)"
       (Sched.explore (Scen.group_commit ~inserts:2 ~updaters:3)));
  ignore
    (assert_passed "solo commit(3, 2 inserts)"
       (Sched.explore (Scen.group_commit ~grouped:false ~inserts:2 ~updaters:3)))

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

(* --- epoch-published snapshots (lock-free read path) --------------- *)

let test_epoch_readers () =
  ignore
    (assert_passed "epoch_readers(1)"
       (Sched.explore (Scen.epoch_readers ~publishes:1)));
  ignore
    (assert_passed "epoch_readers(2)"
       (Sched.explore (Scen.epoch_readers ~publishes:2)))

let test_epoch_shared_slot () =
  ignore
    (assert_passed "epoch_shared_slot"
       (Sched.explore ~max_schedules:2_000_000 Scen.epoch_shared_slot))

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

let test_epoch_broken_reclaim () =
  assert_caught "epoch_broken_reclaim" Scen.epoch_broken_reclaim
    ~mentioning:[ "use-after-retire" ]

let test_checked_join_caught () =
  assert_caught "checked inserts joining groups"
    (Scen.group_commit ~checked_joins:true ~inserts:2 ~updaters:2)
    ~mentioning:[ "checked inserts committed" ]

let test_epoch_broken_mutation () =
  assert_caught "epoch_broken_mutation" Scen.epoch_broken_mutation
    ~mentioning:[ "torn read" ]

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
  match Sched.explore ~max_schedules:1 (Scen.recursive_read ~legacy:false) with
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
          Alcotest.test_case "legacy recursive read deadlocks (replayable)" `Quick
            test_legacy_deadlock;
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
          Alcotest.test_case "group commit: one checked insert commits" `Quick
            test_checked_inserts;
          Alcotest.test_case "replica outbox hand-off" `Quick test_replica_outbox;
          Alcotest.test_case "failure detector: revive only by heartbeat" `Quick
            test_failure_detector;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "reader vs publish/retire/reclaim" `Quick
            test_epoch_readers;
          Alcotest.test_case "shared slot: counted registration" `Quick
            test_epoch_shared_slot;
          Alcotest.test_case "unsafe reclaim is caught (use-after-retire)" `Quick
            test_epoch_broken_reclaim;
          Alcotest.test_case "in-place mutation is caught (torn read)" `Quick
            test_epoch_broken_mutation;
        ] );
      ( "harness",
        [
          Alcotest.test_case "seeded bug is caught" `Quick test_broken_writer_caught;
          Alcotest.test_case "checked insert joining a group is caught" `Quick
            test_checked_join_caught;
          Alcotest.test_case "exploration is deterministic" `Quick test_deterministic;
          Alcotest.test_case "schedule bound reported" `Quick test_schedule_bound;
          Alcotest.test_case "preemption bound prunes, still catches" `Quick
            test_preemption_bound;
        ] );
    ]
