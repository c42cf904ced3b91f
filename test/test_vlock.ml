module Vlock = Sdb_vlock.Vlock
module Vlock_core = Sdb_vlock.Vlock_core
module Metrics = Sdb_obs.Metrics

let check = Alcotest.check

(* Busy-wait with timeout so a broken lock fails the test instead of
   hanging it. *)
let wait_for ?(timeout = 5.0) what pred =
  let start = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. start > timeout then
      Alcotest.fail ("timeout waiting for " ^ what)
    else begin
      Thread.yield ();
      go ()
    end
  in
  go ()

let spawn f = Thread.create f ()

let test_shared_concurrent () =
  let l = Vlock.create () in
  Vlock.acquire l Vlock.Shared;
  Vlock.acquire l Vlock.Shared;
  check Alcotest.int "two readers" 2 (Vlock.readers l);
  Vlock.release l Vlock.Shared;
  Vlock.release l Vlock.Shared;
  check Alcotest.int "drained" 0 (Vlock.readers l)

let test_update_allows_shared () =
  let l = Vlock.create () in
  Vlock.acquire l Vlock.Update;
  (* A reader must get in while update is held. *)
  let got = ref false in
  let t =
    spawn (fun () ->
        Vlock.acquire l Vlock.Shared;
        got := true;
        Vlock.acquire l Vlock.Shared |> ignore;
        Vlock.release l Vlock.Shared;
        Vlock.release l Vlock.Shared)
  in
  wait_for "reader under update" (fun () -> !got);
  Thread.join t;
  check Alcotest.bool "update still held" true (Vlock.update_held l);
  Vlock.release l Vlock.Update

let test_update_excludes_update () =
  let l = Vlock.create () in
  Vlock.acquire l Vlock.Update;
  let second = ref false in
  let t =
    spawn (fun () ->
        Vlock.acquire l Vlock.Update;
        second := true;
        Vlock.release l Vlock.Update)
  in
  Thread.delay 0.05;
  check Alcotest.bool "second update blocked" false !second;
  Vlock.release l Vlock.Update;
  wait_for "second update proceeds" (fun () -> !second);
  Thread.join t

let test_exclusive_excludes_all () =
  let l = Vlock.create () in
  Vlock.acquire l Vlock.Exclusive;
  check Alcotest.bool "exclusive held" true (Vlock.exclusive_held l);
  let reader = ref false and updater = ref false in
  let t1 =
    spawn (fun () ->
        Vlock.acquire l Vlock.Shared;
        reader := true;
        Vlock.release l Vlock.Shared)
  in
  let t2 =
    spawn (fun () ->
        Vlock.acquire l Vlock.Update;
        updater := true;
        Vlock.release l Vlock.Update)
  in
  Thread.delay 0.05;
  check Alcotest.bool "reader blocked" false !reader;
  check Alcotest.bool "updater blocked" false !updater;
  Vlock.release l Vlock.Exclusive;
  wait_for "reader proceeds" (fun () -> !reader);
  wait_for "updater proceeds" (fun () -> !updater);
  Thread.join t1;
  Thread.join t2

let test_upgrade_waits_for_readers () =
  let l = Vlock.create () in
  Vlock.acquire l Vlock.Shared;
  (* The updater runs on its own thread and owns the Update lock it
     upgrades — the discipline the engine (and the sanitizer) demand. *)
  let upgraded = ref false in
  let release_ok = ref false in
  let t =
    spawn (fun () ->
        Vlock.acquire l Vlock.Update;
        Vlock.upgrade l;
        upgraded := true;
        wait_for "leader told to release" (fun () -> !release_ok);
        Vlock.release l Vlock.Exclusive)
  in
  wait_for "updater holds update" (fun () -> Vlock.update_held l);
  Thread.delay 0.05;
  check Alcotest.bool "upgrade waits" false !upgraded;
  (* New readers must not slip in while the upgrade is pending. *)
  let late_reader = ref false in
  let t2 =
    spawn (fun () ->
        Vlock.acquire l Vlock.Shared;
        late_reader := true;
        Vlock.release l Vlock.Shared)
  in
  Thread.delay 0.05;
  check Alcotest.bool "late reader blocked" false !late_reader;
  (* Existing reader leaves; upgrade completes. *)
  Vlock.release l Vlock.Shared;
  wait_for "upgrade completes" (fun () -> !upgraded);
  check Alcotest.bool "now exclusive" true (Vlock.exclusive_held l);
  check Alcotest.bool "late reader still blocked" false !late_reader;
  release_ok := true;
  wait_for "late reader proceeds" (fun () -> !late_reader);
  Thread.join t;
  Thread.join t2

let test_downgrade () =
  let l = Vlock.create () in
  Vlock.acquire l Vlock.Exclusive;
  Vlock.downgrade l;
  check Alcotest.bool "update held" true (Vlock.update_held l);
  check Alcotest.bool "not exclusive" false (Vlock.exclusive_held l);
  (* Readers can come in now — on their own thread, as in the engine. *)
  let read = ref false in
  let t =
    spawn (fun () -> Vlock.with_lock l Vlock.Shared (fun () -> read := true))
  in
  wait_for "reader ran under update" (fun () -> !read);
  Thread.join t;
  Vlock.release l Vlock.Update

let test_misuse_detected () =
  let l = Vlock.create () in
  Alcotest.check_raises "release shared unheld"
    (Invalid_argument "Vlock.release: no shared holder") (fun () ->
      Vlock.release l Vlock.Shared);
  Alcotest.check_raises "release update unheld"
    (Invalid_argument "Vlock.release: update not held") (fun () ->
      Vlock.release l Vlock.Update);
  Alcotest.check_raises "release exclusive unheld"
    (Invalid_argument "Vlock.release: exclusive not held") (fun () ->
      Vlock.release l Vlock.Exclusive);
  Alcotest.check_raises "upgrade without update"
    (Invalid_argument "Vlock.upgrade: update not held") (fun () -> Vlock.upgrade l);
  Alcotest.check_raises "downgrade without exclusive"
    (Invalid_argument "Vlock.downgrade: exclusive not held") (fun () ->
      Vlock.downgrade l)

let test_with_lock_releases_on_exception () =
  let l = Vlock.create () in
  (try Vlock.with_lock l Vlock.Update (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.bool "released after exception" false (Vlock.update_held l);
  (try Vlock.with_lock l Vlock.Shared (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "reader released" 0 (Vlock.readers l)

let test_stats () =
  let l = Vlock.create () in
  Vlock.with_lock l Vlock.Shared (fun () -> ());
  Vlock.with_lock l Vlock.Update (fun () -> ());
  Vlock.acquire l Vlock.Update;
  Vlock.upgrade l;
  Vlock.release l Vlock.Exclusive;
  let s = Vlock.stats l in
  check Alcotest.int "shared" 1 s.Vlock.shared_acquisitions;
  check Alcotest.int "update" 2 s.Vlock.update_acquisitions;
  check Alcotest.int "upgrades" 1 s.Vlock.upgrades

let test_waiters () =
  let l = Vlock.create () in
  check Alcotest.int "idle: no shared waiters" 0 (Vlock.waiters l Vlock.Shared);
  check Alcotest.int "idle: no update waiters" 0 (Vlock.waiters l Vlock.Update);
  Vlock.acquire l Vlock.Exclusive;
  let done_ = ref 0 in
  let blocked mode =
    spawn (fun () ->
        Vlock.acquire l mode;
        Vlock.release l mode;
        incr done_)
  in
  let t1 = blocked Vlock.Shared in
  let t2 = blocked Vlock.Shared in
  let t3 = blocked Vlock.Update in
  wait_for "two shared waiters" (fun () -> Vlock.waiters l Vlock.Shared = 2);
  wait_for "one update waiter" (fun () -> Vlock.waiters l Vlock.Update = 1);
  check Alcotest.int "no exclusive waiters" 0 (Vlock.waiters l Vlock.Exclusive);
  Vlock.release l Vlock.Exclusive;
  wait_for "all proceed" (fun () -> !done_ = 3);
  List.iter Thread.join [ t1; t2; t3 ];
  check Alcotest.int "drained shared" 0 (Vlock.waiters l Vlock.Shared);
  check Alcotest.int "drained update" 0 (Vlock.waiters l Vlock.Update)

(* The ISSUE 7 regression, deterministically: a thread already holding
   Shared re-enters while another thread's upgrade is pending.  Before
   the reader-ownership fix the nested acquisition parked behind the
   pending upgrade while the upgrader drained this very reader — a
   deadlock this test would turn into a timeout. *)
let test_nested_read_during_pending_upgrade () =
  let l = Vlock.create () in
  let reader_in = ref false in
  let nested_in = ref false in
  let release_ok = ref false in
  let rt =
    spawn (fun () ->
        Vlock.acquire l Vlock.Shared;
        reader_in := true;
        wait_for "upgrade pending" (fun () -> Vlock.upgrade_pending l);
        Vlock.acquire l Vlock.Shared;
        check Alcotest.int "both holds registered" 2 (Vlock.shared_hold_count l);
        nested_in := true;
        wait_for "release signal" (fun () -> !release_ok);
        Vlock.release l Vlock.Shared;
        Vlock.release l Vlock.Shared)
  in
  wait_for "reader in" (fun () -> !reader_in);
  let upgraded = ref false in
  let ut =
    spawn (fun () ->
        Vlock.acquire l Vlock.Update;
        Vlock.upgrade l;
        upgraded := true;
        Vlock.release l Vlock.Exclusive)
  in
  wait_for "nested hold acquired under pending upgrade" (fun () -> !nested_in);
  check Alcotest.bool "upgrade still draining" false !upgraded;
  release_ok := true;
  wait_for "upgrade completes once the reader drains" (fun () -> !upgraded);
  Thread.join rt;
  Thread.join ut;
  check Alcotest.int "registry empty" 0 (Vlock.shared_hold_count l);
  check Alcotest.int "drained" 0 (Vlock.readers l)

(* Randomized version of the same race: nested readers hammering a
   spinning upgrader.  Any reintroduction of the recursive-read gate
   hangs this test rather than passing it. *)
let test_stress_nested_readers_vs_upgrader () =
  let l = Vlock.create () in
  let stop = ref false in
  let upgrader =
    spawn (fun () ->
        while not !stop do
          Vlock.acquire l Vlock.Update;
          Vlock.upgrade l;
          Vlock.release l Vlock.Exclusive;
          Thread.yield ()
        done)
  in
  let lost_holds = ref 0 in
  let readers =
    List.init 4 (fun _ ->
        spawn (fun () ->
            for _ = 1 to 300 do
              Vlock.with_lock l Vlock.Shared (fun () ->
                  Vlock.with_lock l Vlock.Shared (fun () ->
                      if Vlock.shared_hold_count l < 2 then incr lost_holds))
            done))
  in
  List.iter Thread.join readers;
  stop := true;
  Thread.join upgrader;
  check Alcotest.int "registry never lost a hold" 0 !lost_holds;
  check Alcotest.int "drained" 0 (Vlock.readers l);
  check Alcotest.int "registry empty" 0 (Vlock.shared_hold_count l)

(* A SYNC whose [wait] can be told to raise: drives the unwinding paths
   of the core protocol, single-threaded and deterministically.  The
   flag is scoped to this test binary, so no cross-test interference. *)
exception Interrupted

module Flaky_sync = struct
  type mutex = Mutex.t
  type cond = Condition.t

  let make_mutex () = Mutex.create ()
  let make_cond () = Condition.create ()
  let lock = Mutex.lock
  let unlock = Mutex.unlock
  let fail_next = ref false

  let wait c m =
    if !fail_next then begin
      fail_next := false;
      raise Interrupted
    end
    else Condition.wait c m

  let broadcast = Condition.broadcast
  let self () = Thread.id (Thread.self ())
end

module FV = Vlock_core.Make (Flaky_sync)

let test_acquire_unwinds_on_interrupt () =
  let open Vlock_core in
  (* Exclusive interrupted mid-drain: upd/upgrade_pending/w_exclusive
     must all be unwound, or the lock is wedged for everyone. *)
  let v = FV.create () in
  FV.acquire v Shared;
  Flaky_sync.fail_next := true;
  (try
     FV.acquire v Exclusive;
     Alcotest.fail "exclusive acquire should have been interrupted"
   with Interrupted -> ());
  check Alcotest.bool "update flag unwound" false (FV.update_held v);
  check Alcotest.bool "pending flag unwound" false (FV.upgrade_pending v);
  check Alcotest.int "exclusive waiter unwound" 0 (FV.waiters v Exclusive);
  FV.release v Shared;
  FV.acquire v Exclusive;
  check Alcotest.bool "lock usable after unwind" true (FV.exclusive_held v);
  FV.release v Exclusive;
  (* Upgrade interrupted mid-drain: Update is kept, the withdrawn
     pending flag must wake the readers it gated. *)
  let v = FV.create () in
  FV.acquire v Shared;
  FV.acquire v Update;
  Flaky_sync.fail_next := true;
  (try
     FV.upgrade v;
     Alcotest.fail "upgrade should have been interrupted"
   with Interrupted -> ());
  check Alcotest.bool "update survives a failed upgrade" true (FV.update_held v);
  check Alcotest.bool "pending withdrawn" false (FV.upgrade_pending v);
  FV.release v Update;
  FV.release v Shared;
  (* Shared interrupted while gated by an exclusive holder. *)
  let v = FV.create () in
  FV.acquire v Exclusive;
  Flaky_sync.fail_next := true;
  (try
     FV.acquire v Shared;
     Alcotest.fail "shared acquire should have been interrupted"
   with Interrupted -> ());
  check Alcotest.int "shared waiter unwound" 0 (FV.waiters v Shared);
  check Alcotest.int "no phantom reader" 0 (FV.readers v);
  FV.release v Exclusive

(* Stale-stamp regression: a hold that begins while metrics are off
   must observe nothing at release even if metrics were re-enabled in
   between — the old code left the previous hold's timestamp in place
   and charged the whole disabled interval to the next release. *)
let test_hold_metrics_toggle () =
  let was_enabled = Metrics.is_enabled () in
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) @@ fun () ->
  (* The registry memoizes by name+labels: this returns the same handle
     vlock.ml observes into. *)
  let h =
    Metrics.histogram "sdb_lock_hold_seconds" ~labels:[ ("mode", "update") ]
  in
  let count () = (Metrics.histogram_snapshot h).Sdb_util.Histogram.s_count in
  let l = Vlock.create () in
  (* Stamp a hold, then release with metrics off: no observation, and
     crucially the stamp must be cleared. *)
  Metrics.set_enabled true;
  Vlock.acquire l Vlock.Update;
  Metrics.set_enabled false;
  Vlock.release l Vlock.Update;
  (* A hold taken while off and released while on has no stamp: it must
     not observe (and before the fix it observed the stale stamp). *)
  Vlock.acquire l Vlock.Update;
  Metrics.set_enabled true;
  let before = count () in
  Vlock.release l Vlock.Update;
  check Alcotest.int "no bogus sample from a stale stamp" before (count ());
  (* A fully-timed hold still lands. *)
  Vlock.acquire l Vlock.Update;
  Vlock.release l Vlock.Update;
  check Alcotest.int "timed hold observed" (before + 1) (count ())

(* Stress: concurrent readers and writers keep a counter consistent.
   Writers mutate only under exclusive; readers observe only stable
   states (even counter). *)
let test_stress_invariant () =
  let l = Vlock.create () in
  let counter = ref 0 in
  let torn_reads = ref 0 in
  let writers =
    List.init 4 (fun _ ->
        spawn (fun () ->
            for _ = 1 to 200 do
              Vlock.acquire l Vlock.Update;
              (* "log write" happens here, readers still active *)
              Vlock.upgrade l;
              incr counter;
              incr counter;
              Vlock.release l Vlock.Exclusive
            done))
  in
  let readers =
    List.init 4 (fun _ ->
        spawn (fun () ->
            for _ = 1 to 400 do
              Vlock.with_lock l Vlock.Shared (fun () ->
                  if !counter land 1 = 1 then incr torn_reads)
            done))
  in
  List.iter Thread.join writers;
  List.iter Thread.join readers;
  check Alcotest.int "final counter" 1600 !counter;
  check Alcotest.int "no torn reads" 0 !torn_reads

let () =
  Helpers.run "vlock"
    [
      ( "matrix",
        [
          Alcotest.test_case "shared compatible with shared" `Quick
            test_shared_concurrent;
          Alcotest.test_case "update allows shared" `Quick test_update_allows_shared;
          Alcotest.test_case "update excludes update" `Quick test_update_excludes_update;
          Alcotest.test_case "exclusive excludes all" `Quick test_exclusive_excludes_all;
        ] );
      ( "transitions",
        [
          Alcotest.test_case "upgrade waits, blocks new readers" `Quick
            test_upgrade_waits_for_readers;
          Alcotest.test_case "downgrade" `Quick test_downgrade;
        ] );
      ( "recursive-read",
        [
          Alcotest.test_case "nested read during pending upgrade" `Quick
            test_nested_read_during_pending_upgrade;
          Alcotest.test_case "nested readers vs spinning upgrader" `Quick
            test_stress_nested_readers_vs_upgrader;
        ] );
      ( "unwinding",
        [
          Alcotest.test_case "acquire unwinds on interrupt" `Quick
            test_acquire_unwinds_on_interrupt;
          Alcotest.test_case "hold metrics survive toggling" `Quick
            test_hold_metrics_toggle;
        ] );
      ( "safety",
        [
          Alcotest.test_case "misuse detected" `Quick test_misuse_detected;
          Alcotest.test_case "with_lock releases on exception" `Quick
            test_with_lock_releases_on_exception;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "waiters" `Quick test_waiters;
          Alcotest.test_case "stress invariant" `Quick test_stress_invariant;
        ] );
    ]
