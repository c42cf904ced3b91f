(* SLO window math: budget burn, bucket rotation, and clock steps.

   Every tracker here runs on an injected clock, so rotation is driven
   explicitly and the tests are deterministic. *)

module Slo = Sdb_obs.Slo
module Metrics = Sdb_obs.Metrics

let check = Alcotest.check

(* A 6 s window in six 1 s buckets at a 10 ms objective and 10% budget:
   small numbers whose fractions are exact. *)
let make ?(objective_ms = 10.0) ?(budget = 0.1) name =
  let clock = ref 0.0 in
  let slo =
    Slo.create ~now:(fun () -> !clock) ~window_s:6.0 ~buckets:6 ~name
      ~objective_ms ~budget ()
  in
  (clock, slo)

let good = 0.005 (* under a 10 ms objective *)
let bad = 0.020

let test_empty_window_passes () =
  let _clock, slo = make "test_slo_empty" in
  let r = Slo.report slo in
  check Alcotest.int "no traffic" 0 r.Slo.r_total;
  check (Alcotest.float 1e-9) "no bad fraction" 0.0 r.Slo.r_bad_fraction;
  check (Alcotest.float 1e-9) "no burn" 0.0 r.Slo.r_burn;
  check Alcotest.bool "an idle service is compliant" true r.Slo.r_pass

let test_burn_math () =
  let _clock, slo = make "test_slo_burn" in
  for _ = 1 to 90 do Slo.record slo good done;
  for _ = 1 to 10 do Slo.record slo bad done;
  let r = Slo.report slo in
  check Alcotest.int "total" 100 r.Slo.r_total;
  check Alcotest.int "bad" 10 r.Slo.r_bad;
  check (Alcotest.float 1e-9) "bad fraction" 0.1 r.Slo.r_bad_fraction;
  (* Exactly at budget: burn 1.0 still passes... *)
  check (Alcotest.float 1e-9) "burn at budget" 1.0 r.Slo.r_burn;
  check Alcotest.bool "at budget passes" true (Slo.report slo).Slo.r_pass;
  (* ...one more violation tips it over. *)
  Slo.record slo bad;
  check Alcotest.bool "over budget fails" false (Slo.report slo).Slo.r_pass

let test_failures_always_burn () =
  let _clock, slo = make "test_slo_failures" in
  Slo.record slo good;
  Slo.record_failure slo;
  let r = Slo.report slo in
  check Alcotest.int "failure counted" 1 r.Slo.r_bad;
  check Alcotest.int "in the total too" 2 r.Slo.r_total

let test_rotation_expires_old_traffic () =
  let clock, slo = make "test_slo_rotation" in
  for _ = 1 to 10 do Slo.record slo bad done;
  check Alcotest.bool "fresh violations fail" false (Slo.report slo).Slo.r_pass;
  (* Half a window later the violations are still in scope... *)
  clock := 3.0;
  check Alcotest.int "still visible mid-window" 10 (Slo.report slo).Slo.r_total;
  (* ...recording good traffic in a later bucket keeps both in view... *)
  for _ = 1 to 200 do Slo.record slo good done;
  let r = Slo.report slo in
  check Alcotest.int "window sums buckets" 210 r.Slo.r_total;
  check Alcotest.bool "diluted under budget" true r.Slo.r_pass;
  (* ...and one bucket past the window the old bucket has expired. *)
  clock := 6.5;
  let r = Slo.report slo in
  check Alcotest.int "epoch-0 bucket expired" 200 r.Slo.r_total;
  check Alcotest.int "its violations went with it" 0 r.Slo.r_bad

let test_backward_clock_never_rotates () =
  let clock, slo = make "test_slo_backward" in
  clock := 5.0;
  for _ = 1 to 4 do Slo.record slo bad done;
  (* A clock step backwards (NTP, VM migration) must not expire or
     double-count anything: recording continues in the current bucket. *)
  clock := 2.0;
  Slo.record slo bad;
  let r = Slo.report slo in
  check Alcotest.int "nothing expired" 5 r.Slo.r_total;
  clock := 5.0;
  check Alcotest.int "restored clock still sees all" 5
    (Slo.report slo).Slo.r_total

let test_forward_step_clears_window () =
  let clock, slo = make "test_slo_step" in
  for _ = 1 to 10 do Slo.record slo bad done;
  check Alcotest.bool "violating before the step" false (Slo.report slo).Slo.r_pass;
  (* A jump of at least the whole window means every bucket is stale. *)
  clock := 100.0;
  let r = Slo.report slo in
  check Alcotest.int "everything expired" 0 r.Slo.r_total;
  check Alcotest.bool "empty window passes again" true r.Slo.r_pass;
  (* And the tracker keeps working at the new epoch. *)
  Slo.record slo bad;
  check Alcotest.int "records at new epoch" 1 (Slo.report slo).Slo.r_total

let test_expose () =
  let _clock, slo = make "test_slo_expose" in
  for _ = 1 to 9 do Slo.record slo good done;
  Slo.record slo bad;
  Slo.expose slo;
  let out = Metrics.render () in
  check Alcotest.bool "burn gauge" true
    (Helpers.contains ~needle:"sdb_slo_burn_rate{slo=\"test_slo_expose\"} 1" out);
  check Alcotest.bool "compliance gauge" true
    (Helpers.contains ~needle:"sdb_slo_compliant{slo=\"test_slo_expose\"} 1" out);
  check Alcotest.bool "objective gauge" true
    (Helpers.contains ~needle:"sdb_slo_objective_seconds{slo=\"test_slo_expose\"} 0.01" out)

let test_validation () =
  let bad_create f = try ignore (f ()); false with Invalid_argument _ -> true in
  check Alcotest.bool "zero objective refused" true
    (bad_create (fun () ->
         Slo.create ~name:"v1" ~objective_ms:0.0 ~budget:0.1 ()));
  check Alcotest.bool "budget of 1 refused" true
    (bad_create (fun () ->
         Slo.create ~name:"v2" ~objective_ms:10.0 ~budget:1.0 ()));
  check Alcotest.bool "zero buckets refused" true
    (bad_create (fun () ->
         Slo.create ~buckets:0 ~name:"v3" ~objective_ms:10.0 ~budget:0.1 ()))

let () =
  Helpers.run "slo"
    [
      ( "window math",
        [
          Alcotest.test_case "empty window passes" `Quick test_empty_window_passes;
          Alcotest.test_case "burn math" `Quick test_burn_math;
          Alcotest.test_case "failures always burn" `Quick test_failures_always_burn;
          Alcotest.test_case "rotation expires old traffic" `Quick
            test_rotation_expires_old_traffic;
          Alcotest.test_case "backward clock never rotates" `Quick
            test_backward_clock_never_rotates;
          Alcotest.test_case "forward step clears window" `Quick
            test_forward_step_clears_window;
          Alcotest.test_case "expose" `Quick test_expose;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
