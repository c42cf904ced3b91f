(* The concurrency sanitizer's own suite: every detector must fire on a
   seeded breach (with a captured stack), stay quiet on disciplined
   code, and cost nothing when disabled.  The stress group runs the
   real engine — group commit, checkpoints, a scrub — under the
   sanitizer and demands a clean violation log. *)

module Vlock = Sdb_vlock.Vlock

let check = Alcotest.check

(* Each test starts from a clean registry; the suite force-enables the
   sanitizer so it works without SDB_SANITIZE=1 in the environment. *)
let fresh () =
  Sdb_check.reset ();
  Sdb_check.set_enabled true

let expect_violation rule f =
  match f () with
  | _ -> Alcotest.failf "expected a %S violation, none raised" rule
  | exception Sdb_check.Violation v ->
    check Alcotest.string "rule" rule v.Sdb_check.v_rule;
    check Alcotest.bool "message names the problem" true
      (String.length v.Sdb_check.v_message > 0);
    List.iter
      (fun (what, stack) ->
        check Alcotest.bool ("stack captured for " ^ what) true
          (String.length stack > 0))
      v.Sdb_check.v_stacks;
    check Alcotest.bool "at least one stack" true (v.Sdb_check.v_stacks <> [])

(* --------------------------------------------------------------- *)
(* Detection: seeded breaches must be caught, with stacks.          *)

let test_mode_breach_bare () =
  fresh ();
  let l = Sdb_check.make_lock ~kind:`Vlock "t.mode" in
  expect_violation "mode" (fun () ->
      Sdb_check.assert_mode l Sdb_check.Exclusive ~site:"test.mutate")

let test_mutation_without_exclusive () =
  fresh ();
  (* The engine's exact shape: Update held (log write allowed), but a
     state mutation demands Exclusive. *)
  let l = Vlock.create ~name:"t-engine" () in
  Vlock.acquire l Vlock.Update;
  let san = Vlock.sanitizer l in
  Sdb_check.assert_mode san Sdb_check.Update ~site:"test.log";
  expect_violation "mode" (fun () ->
      Sdb_check.assert_mode san Sdb_check.Exclusive ~site:"test.apply");
  Vlock.upgrade l;
  Sdb_check.assert_mode san Sdb_check.Exclusive ~site:"test.apply";
  Vlock.release l Vlock.Exclusive

let test_lock_order_cycle () =
  fresh ();
  let a = Sdb_check.make_lock "t.order.a" in
  let b = Sdb_check.make_lock "t.order.b" in
  (* Establish a -> b ... *)
  Sdb_check.note_acquire a Sdb_check.Mutex;
  Sdb_check.note_acquire b Sdb_check.Mutex;
  Sdb_check.note_release b Sdb_check.Mutex;
  Sdb_check.note_release a Sdb_check.Mutex;
  check
    Alcotest.(list (pair string string))
    "edge recorded"
    [ ("t.order.a", "t.order.b") ]
    (Sdb_check.lock_order_edges ());
  (* ... then contradict it: b -> a is a potential deadlock. *)
  Sdb_check.note_acquire b Sdb_check.Mutex;
  (match
     Sdb_check.note_acquire a Sdb_check.Mutex
   with
  | _ -> Alcotest.fail "expected a lock-order violation"
  | exception Sdb_check.Violation v ->
    check Alcotest.string "rule" "lock-order" v.Sdb_check.v_rule;
    (* Both sides of the inversion carry a stack: the offending
       acquisition and the prior a -> b edge. *)
    check Alcotest.bool "two stacks" true
      (List.length v.Sdb_check.v_stacks >= 2));
  Sdb_check.note_release b Sdb_check.Mutex

let test_reentrant_nesting () =
  fresh ();
  let m = Sdb_check.Mu.make "t.re" in
  Sdb_check.Mu.lock m;
  expect_violation "nesting" (fun () -> Sdb_check.Mu.lock m);
  Sdb_check.Mu.unlock m

let test_same_class_nesting () =
  fresh ();
  (* Two instances of one class (e.g. two replica.peer outbox mutexes):
     nesting them is a deadlock hazard the class graph cannot see. *)
  let a = Sdb_check.make_lock "t.peer" in
  let b = Sdb_check.make_lock "t.peer" in
  Sdb_check.note_acquire a Sdb_check.Mutex;
  expect_violation "nesting" (fun () ->
      Sdb_check.note_acquire b Sdb_check.Mutex);
  Sdb_check.note_release a Sdb_check.Mutex

let test_recursive_read_allowed () =
  fresh ();
  let l = Vlock.create ~name:"t-rec" () in
  Vlock.acquire l Vlock.Shared;
  Vlock.acquire l Vlock.Shared;
  check Alcotest.int "two readers" 2 (Vlock.readers l);
  Vlock.release l Vlock.Shared;
  Vlock.release l Vlock.Shared;
  check Alcotest.(list (pair string string)) "no self edge" []
    (Sdb_check.lock_order_edges ())

(* The nested-read allowance is a verified claim, not an exemption: a
   lock whose probe denies ownership turns the "recursive" acquisition
   into a nesting violation. *)
let test_reentry_probe_mismatch () =
  fresh ();
  let l = Sdb_check.make_lock ~kind:`Vlock "t.probe" in
  Sdb_check.set_reentry_probe l (fun () -> false);
  Sdb_check.note_acquire l Sdb_check.Shared;
  expect_violation "nesting" (fun () ->
      Sdb_check.note_acquire l Sdb_check.Shared);
  Sdb_check.note_release l Sdb_check.Shared

let test_reentry_probe_confirms () =
  fresh ();
  let l = Sdb_check.make_lock ~kind:`Vlock "t.probe.ok" in
  Sdb_check.set_reentry_probe l (fun () -> true);
  Sdb_check.note_acquire l Sdb_check.Shared;
  Sdb_check.note_acquire l Sdb_check.Shared;
  Sdb_check.note_release l Sdb_check.Shared;
  Sdb_check.note_release l Sdb_check.Shared;
  check Alcotest.int "no violations" 0
    (Sdb_check.stats ()).Sdb_check.violations

(* End to end: a real Vlock re-entering Shared while another thread's
   upgrade is pending, under the sanitizer.  The probe Vlock installs
   at creation confirms the ownership from the reader registry; before
   the reader-ownership fix this schedule deadlocked. *)
let test_reentry_under_pending_upgrade_checked () =
  fresh ();
  let l = Vlock.create ~name:"t-rec-pend" () in
  let entered = ref false in
  let rt =
    Thread.create
      (fun () ->
        Vlock.acquire l Vlock.Shared;
        entered := true;
        while not (Vlock.upgrade_pending l) do
          Thread.yield ()
        done;
        Vlock.acquire l Vlock.Shared;
        Vlock.release l Vlock.Shared;
        Vlock.release l Vlock.Shared)
      ()
  in
  while not !entered do
    Thread.yield ()
  done;
  let ut =
    Thread.create
      (fun () ->
        Vlock.acquire l Vlock.Update;
        Vlock.upgrade l;
        Vlock.release l Vlock.Exclusive)
      ()
  in
  Thread.join rt;
  Thread.join ut;
  check Alcotest.int "no violations" 0
    (Sdb_check.stats ()).Sdb_check.violations

let test_release_without_hold () =
  fresh ();
  let l = Sdb_check.make_lock "t.rel" in
  expect_violation "nesting" (fun () ->
      Sdb_check.note_release l Sdb_check.Mutex)

let test_upgrade_without_hold () =
  fresh ();
  let l = Sdb_check.make_lock ~kind:`Vlock "t.up" in
  expect_violation "mode" (fun () -> Sdb_check.note_upgrade l)

let test_guarded_field () =
  fresh ();
  let mu = Sdb_check.Mu.make "t.guard" in
  let cell = Sdb_check.Guarded.create ~by:mu ~name:"t.cell" 0 in
  expect_violation "guard" (fun () -> Sdb_check.Guarded.get cell);
  expect_violation "guard" (fun () -> Sdb_check.Guarded.set cell 1);
  Sdb_check.Mu.with_lock mu (fun () ->
      Sdb_check.Guarded.set cell 7;
      check Alcotest.int "guarded rw" 7 (Sdb_check.Guarded.get cell))

let test_mutex_across_io () =
  fresh ();
  let mu = Sdb_check.Mu.make "t.io" in
  Sdb_check.Mu.lock mu;
  expect_violation "io" (fun () ->
      Sdb_check.assert_no_mutex_held_during_io ~site:"test.fsync");
  Sdb_check.Mu.unlock mu;
  (* Vlock modes are fine across I/O: the paper writes the log while
     holding Update. *)
  let l = Vlock.create ~name:"t-io" () in
  Vlock.acquire l Vlock.Update;
  Sdb_check.assert_no_mutex_held_during_io ~site:"test.fsync";
  Vlock.release l Vlock.Update

(* A try-lock that succeeds is held like a lock (its unlock balances
   it, and I/O under it is caught); one that fails takes nothing.  A
   try never waits, so it adds no lock-order edge: the reverse order
   taken with a blocking lock afterwards is no cycle. *)
let test_try_lock () =
  fresh ();
  let a = Sdb_check.Mu.make "t.try.a" and b = Sdb_check.Mu.make "t.try.b" in
  Sdb_check.Mu.lock a;
  check Alcotest.bool "taken" true (Sdb_check.Mu.try_lock b);
  expect_violation "io" (fun () -> Sdb_check.assert_no_mutex_held_during_io ~site:"test.io");
  let busy = ref true in
  let th = Thread.create (fun () -> busy := Sdb_check.Mu.try_lock b) () in
  Thread.join th;
  check Alcotest.bool "held elsewhere: not taken" false !busy;
  Sdb_check.Mu.unlock b;
  Sdb_check.Mu.unlock a;
  check Alcotest.(list (pair string string)) "no edge from a try" []
    (Sdb_check.lock_order_edges ());
  let logged = List.length (Sdb_check.violations ()) in
  Sdb_check.Mu.lock b;
  Sdb_check.Mu.lock a;
  Sdb_check.Mu.unlock a;
  Sdb_check.Mu.unlock b;
  check Alcotest.int "reverse order: no violation" logged
    (List.length (Sdb_check.violations ()))

let test_violation_log_and_stats () =
  fresh ();
  let l = Sdb_check.make_lock "t.log" in
  (try Sdb_check.note_release l Sdb_check.Mutex
   with Sdb_check.Violation _ -> ());
  let vs = Sdb_check.violations () in
  check Alcotest.int "one logged" 1 (List.length vs);
  let s = Sdb_check.stats () in
  check Alcotest.int "violation counted" 1 s.Sdb_check.violations;
  check Alcotest.bool "checks counted" true (s.Sdb_check.checks > 0)

let test_disabled_is_inert () =
  fresh ();
  Sdb_check.set_enabled false;
  let l = Sdb_check.make_lock "t.off" in
  (* Every breach from the detection tests, now silent. *)
  Sdb_check.note_release l Sdb_check.Mutex;
  Sdb_check.note_acquire l Sdb_check.Mutex;
  Sdb_check.note_acquire l Sdb_check.Mutex;
  Sdb_check.assert_mode l Sdb_check.Exclusive ~site:"off";
  Sdb_check.assert_no_mutex_held_during_io ~site:"off";
  let mu = Sdb_check.Mu.make "t.off.mu" in
  let cell = Sdb_check.Guarded.create ~by:mu ~name:"t.off.cell" 0 in
  Sdb_check.Guarded.set cell 3;
  check Alcotest.int "guarded passthrough" 3 (Sdb_check.Guarded.get cell);
  let s = Sdb_check.stats () in
  check Alcotest.int "no checks recorded" 0 s.Sdb_check.checks;
  check Alcotest.int "no violations" 0 s.Sdb_check.violations;
  Sdb_check.set_enabled true

(* --------------------------------------------------------------- *)
(* Stress: the real engine under the sanitizer must come out clean. *)

let test_engine_stress () =
  fresh ();
  let config =
    {
      Smalldb.default_config with
      group_commit = true;
      policy = Smalldb.Every_n_updates 64;
    }
  in
  let _store, _fs, db = Helpers.mem_db ~config ~seed:42 () in
  let writers = 4 and readers = 2 and per_writer = 100 in
  let ws =
    List.init writers (fun tid ->
        Thread.create
          (fun () ->
            for i = 0 to per_writer - 1 do
              Helpers.KVDb.update db
                (Helpers.KV.Set (Printf.sprintf "w%d-%03d" tid i, "v"))
            done)
          ())
  in
  let stop = Atomic.make false in
  let rs =
    List.init readers (fun _ ->
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              ignore (Helpers.KVDb.query db Helpers.Smap.cardinal);
              Thread.yield ()
            done)
          ())
  in
  List.iter Thread.join ws;
  let report = Helpers.KVDb.scrub db in
  check Alcotest.bool "scrub clean" true
    (report.Smalldb.findings = [] && report.Smalldb.replay_consistent);
  Atomic.set stop true;
  List.iter Thread.join rs;
  Helpers.KVDb.checkpoint db;
  check Alcotest.int "all updates present" (writers * per_writer)
    (List.length (Helpers.kv_contents db));
  Helpers.KVDb.close db;
  let s = Sdb_check.stats () in
  check Alcotest.bool "sanitizer exercised" true (s.Sdb_check.checks > 1000);
  check Alcotest.bool "nesting observed" true (s.Sdb_check.max_lock_depth >= 2);
  check Alcotest.int "no violations" 0 s.Sdb_check.violations;
  check Alcotest.int "violation log empty" 0
    (List.length (Sdb_check.violations ()));
  (* The observed order graph must still be acyclic (a cycle would have
     raised), and non-trivial: group commit nests the coordinator mutex
     under the vlock. *)
  check Alcotest.bool "order edges observed" true
    (Sdb_check.lock_order_edges () <> [])

let () =
  Helpers.run "sanitizer"
    [
      ( "detect",
        [
          Alcotest.test_case "assert_mode with nothing held" `Quick
            test_mode_breach_bare;
          Alcotest.test_case "mutation without exclusive" `Quick
            test_mutation_without_exclusive;
          Alcotest.test_case "lock-order cycle" `Quick test_lock_order_cycle;
          Alcotest.test_case "re-entrant acquisition" `Quick
            test_reentrant_nesting;
          Alcotest.test_case "same-class nesting" `Quick test_same_class_nesting;
          Alcotest.test_case "recursive read allowed" `Quick
            test_recursive_read_allowed;
          Alcotest.test_case "re-entry probe mismatch caught" `Quick
            test_reentry_probe_mismatch;
          Alcotest.test_case "re-entry probe confirms" `Quick
            test_reentry_probe_confirms;
          Alcotest.test_case "re-entry under pending upgrade checked" `Quick
            test_reentry_under_pending_upgrade_checked;
          Alcotest.test_case "release without hold" `Quick
            test_release_without_hold;
          Alcotest.test_case "upgrade without hold" `Quick
            test_upgrade_without_hold;
          Alcotest.test_case "guarded field" `Quick test_guarded_field;
          Alcotest.test_case "mutex across io" `Quick test_mutex_across_io;
          Alcotest.test_case "try-lock bookkeeping" `Quick test_try_lock;
          Alcotest.test_case "violation log and stats" `Quick
            test_violation_log_and_stats;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
        ] );
      ( "stress",
        [ Alcotest.test_case "engine under sanitizer" `Quick test_engine_stress ] );
    ]
