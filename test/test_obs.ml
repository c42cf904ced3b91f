(* The observability layer: metrics registry semantics and trace sinks.

   The registry is process-global, so each test works with its own
   uniquely-named families (and resets global switches it flips). *)

module Metrics = Sdb_obs.Metrics
module Trace = Sdb_obs.Trace

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counter_monotone () =
  let c = Metrics.counter "test_obs_monotone_total" in
  let v0 = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 5;
  check Alcotest.int "incremented" (v0 + 7) (Metrics.counter_value c);
  Metrics.add c 0;
  check Alcotest.int "add zero" (v0 + 7) (Metrics.counter_value c);
  Alcotest.check_raises "negative add refused"
    (Invalid_argument "Metrics.add: counters are monotone") (fun () ->
      Metrics.add c (-1))

let test_idempotent_creation () =
  let a = Metrics.counter "test_obs_idem_total" ~labels:[ ("k", "v") ] in
  let b = Metrics.counter "test_obs_idem_total" ~labels:[ ("k", "v") ] in
  Metrics.incr a;
  Metrics.incr b;
  check Alcotest.int "same underlying counter" 2 (Metrics.counter_value a);
  (* Same name with a different kind is a bug at the call site. *)
  Alcotest.check_raises "kind conflict"
    (Invalid_argument "Metrics: test_obs_idem_total is a counter, requested as gauge")
    (fun () -> ignore (Metrics.gauge "test_obs_idem_total"))

let test_label_isolation () =
  let verify =
    Metrics.counter "test_obs_phase_total" ~labels:[ ("phase", "verify") ]
  in
  let apply =
    Metrics.counter "test_obs_phase_total" ~labels:[ ("phase", "apply") ]
  in
  (* Label order must not create a distinct series. *)
  let multi_a =
    Metrics.counter "test_obs_multi_total" ~labels:[ ("a", "1"); ("b", "2") ]
  in
  let multi_b =
    Metrics.counter "test_obs_multi_total" ~labels:[ ("b", "2"); ("a", "1") ]
  in
  Metrics.incr verify;
  Metrics.incr verify;
  Metrics.incr apply;
  Metrics.incr multi_a;
  Metrics.incr multi_b;
  check Alcotest.int "verify series" 2 (Metrics.counter_value verify);
  check Alcotest.int "apply series" 1 (Metrics.counter_value apply);
  check Alcotest.int "label order canonicalized" 2 (Metrics.counter_value multi_a)

let test_gauge_and_histogram () =
  let g = Metrics.gauge "test_obs_gauge" in
  Metrics.set_gauge g 3.5;
  check (Alcotest.float 1e-9) "gauge set" 3.5 (Metrics.gauge_value g);
  Metrics.set_gauge g (-1.0);
  check (Alcotest.float 1e-9) "gauge moves down" (-1.0) (Metrics.gauge_value g);
  let h = Metrics.histogram "test_obs_hist_seconds" in
  List.iter (Metrics.observe h) [ 0.1; 0.2; 0.3 ];
  let s = Metrics.histogram_snapshot h in
  check Alcotest.int "observations" 3 s.Sdb_util.Histogram.s_count;
  check (Alcotest.float 1e-9) "mean" 0.2 s.Sdb_util.Histogram.s_mean

let test_enable_disable () =
  let c = Metrics.counter "test_obs_disabled_total" in
  let g = Metrics.gauge "test_obs_disabled_gauge" in
  let h = Metrics.histogram "test_obs_disabled_seconds" in
  Metrics.set_gauge g 1.0;
  Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled true)
    (fun () ->
      check Alcotest.bool "disabled" false (Metrics.is_enabled ());
      Metrics.incr c;
      Metrics.add c 10;
      Metrics.set_gauge g 99.0;
      Metrics.observe h 1.0;
      check Alcotest.int "counter frozen" 0 (Metrics.counter_value c);
      check (Alcotest.float 1e-9) "gauge frozen" 1.0 (Metrics.gauge_value g);
      check Alcotest.int "histogram frozen" 0
        (Metrics.histogram_snapshot h).Sdb_util.Histogram.s_count);
  Metrics.incr c;
  check Alcotest.int "recording resumes" 1 (Metrics.counter_value c)

let test_render () =
  let c =
    Metrics.counter "test_obs_render_total" ~help:"Render me."
      ~labels:[ ("phase", "log") ]
  in
  Metrics.add c 4;
  let h = Metrics.histogram "test_obs_render_seconds" in
  Metrics.observe h 0.25;
  let out = Metrics.render () in
  check Alcotest.bool "help line" true
    (Helpers.contains ~needle:"# HELP test_obs_render_total Render me." out);
  check Alcotest.bool "type line" true
    (Helpers.contains ~needle:"# TYPE test_obs_render_total counter" out);
  check Alcotest.bool "labelled sample" true
    (Helpers.contains ~needle:"test_obs_render_total{phase=\"log\"} 4" out);
  check Alcotest.bool "summary quantile" true
    (Helpers.contains ~needle:"test_obs_render_seconds{quantile=\"0.5\"}" out);
  check Alcotest.bool "summary count" true
    (Helpers.contains ~needle:"test_obs_render_seconds_count 1" out)

let test_reset_keeps_handles () =
  let c = Metrics.counter "test_obs_reset_total" in
  Metrics.add c 7;
  Metrics.reset ();
  check Alcotest.int "zeroed" 0 (Metrics.counter_value c);
  Metrics.incr c;
  check Alcotest.int "handle still live" 1 (Metrics.counter_value c);
  check Alcotest.bool "still rendered" true
    (Helpers.contains ~needle:"test_obs_reset_total 1" (Metrics.render ()))

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)

let with_sink sink f =
  Trace.set_sink (Some sink);
  Fun.protect ~finally:(fun () -> Trace.set_sink None) f

let span_names spans = List.map (fun s -> s.Trace.name) spans

let test_sink_ordering () =
  let ring = Trace.Ring.create ~capacity:16 in
  with_sink (Trace.Ring.sink ring) (fun () ->
      check Alcotest.bool "active" true (Trace.active ());
      Trace.span "first" ~start_s:1.0 ~dur_s:0.1;
      Trace.span "second" ~start_s:2.0 ~dur_s:0.2;
      let v = Trace.with_span "third" (fun () -> 42) in
      check Alcotest.int "with_span passes result" 42 v);
  check Alcotest.bool "inactive after reset" false (Trace.active ());
  Trace.span "dropped" ~start_s:9.0 ~dur_s:0.0;
  check (Alcotest.list Alcotest.string) "emission order"
    [ "first"; "second"; "third" ]
    (span_names (Trace.Ring.contents ring))

let test_with_span_exception () =
  let ring = Trace.Ring.create ~capacity:4 in
  with_sink (Trace.Ring.sink ring) (fun () ->
      match Trace.with_span "boom" (fun () -> failwith "kaput") with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure _ -> ());
  match Trace.Ring.contents ring with
  | [ s ] ->
    check Alcotest.string "span name" "boom" s.Trace.name;
    check Alcotest.bool "error attr" true
      (List.mem_assoc "error" s.Trace.attrs)
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

let test_ring_truncation () =
  let ring = Trace.Ring.create ~capacity:3 in
  with_sink (Trace.Ring.sink ring) (fun () ->
      for i = 1 to 7 do
        Trace.span (Printf.sprintf "s%d" i) ~start_s:(float_of_int i) ~dur_s:0.0
      done);
  check (Alcotest.list Alcotest.string) "keeps the newest, oldest first"
    [ "s5"; "s6"; "s7" ]
    (span_names (Trace.Ring.contents ring));
  Trace.Ring.clear ring;
  check Alcotest.int "cleared" 0 (List.length (Trace.Ring.contents ring))

let test_tee () =
  let a = Trace.Ring.create ~capacity:4 in
  let b = Trace.Ring.create ~capacity:4 in
  with_sink (Trace.tee [ Trace.Ring.sink a; Trace.Ring.sink b ]) (fun () ->
      Trace.span "both" ~start_s:1.0 ~dur_s:0.5);
  check (Alcotest.list Alcotest.string) "first sink" [ "both" ]
    (span_names (Trace.Ring.contents a));
  check (Alcotest.list Alcotest.string) "second sink" [ "both" ]
    (span_names (Trace.Ring.contents b))

let test_ring_recent () =
  let ring = Trace.Ring.create ~capacity:8 in
  with_sink (Trace.Ring.sink ring) (fun () ->
      Trace.span "fast1" ~start_s:1.0 ~dur_s:0.001;
      Trace.span "slow1" ~start_s:2.0 ~dur_s:0.5;
      Trace.span "fast2" ~start_s:3.0 ~dur_s:0.002;
      Trace.span "slow2" ~start_s:4.0 ~dur_s:0.9);
  check (Alcotest.list Alcotest.string) "newest first, filtered"
    [ "slow2"; "slow1" ]
    (span_names (Trace.Ring.recent ~min_dur_s:0.1 ~max_n:10 ring));
  check (Alcotest.list Alcotest.string) "max_n truncates at the new end"
    [ "slow2"; "fast2" ]
    (span_names (Trace.Ring.recent ~max_n:2 ring))

let test_slow_ring () =
  Trace.set_sink (Some (Trace.Slow.install ~capacity:8 ~threshold_s:0.01));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      check (Alcotest.option (Alcotest.float 1e-12)) "threshold readable"
        (Some 0.01) (Trace.Slow.threshold_s ());
      Trace.span "fast" ~start_s:1.0 ~dur_s:0.001;
      Trace.span "slow" ~start_s:2.0 ~dur_s:0.05;
      check (Alcotest.list Alcotest.string) "only spans over threshold"
        [ "slow" ]
        (span_names (Trace.Slow.recent ~max_n:10 ()));
      check (Alcotest.list Alcotest.string) "query-time filter stacks"
        []
        (span_names (Trace.Slow.recent ~min_dur_s:0.1 ~max_n:10 ())))

let test_with_request () =
  let ring = Trace.Ring.create ~capacity:8 in
  with_sink (Trace.Ring.sink ring) (fun () ->
      Trace.span "before" ~start_s:0.0 ~dur_s:0.0;
      Trace.with_request "req-7" (fun () ->
          check (Alcotest.option Alcotest.string) "context visible"
            (Some "req-7") (Trace.current_request ());
          Trace.span "inside" ~start_s:1.0 ~dur_s:0.0;
          Trace.with_request "req-8" (fun () ->
              Trace.span "nested" ~start_s:2.0 ~dur_s:0.0);
          (* The outer id is restored after the nested scope. *)
          Trace.span "restored" ~start_s:3.0 ~dur_s:0.0;
          (* An explicit req attr wins over the ambient context. *)
          Trace.span "explicit" ~attrs:[ ("req", "mine") ] ~start_s:4.0
            ~dur_s:0.0);
      Trace.span "after" ~start_s:5.0 ~dur_s:0.0);
  check (Alcotest.option Alcotest.string) "no ambient context" None
    (Trace.current_request ());
  let req name =
    let s = List.find (fun s -> s.Trace.name = name) (Trace.Ring.contents ring) in
    List.assoc_opt "req" s.Trace.attrs
  in
  check (Alcotest.option Alcotest.string) "before scope" None (req "before");
  check (Alcotest.option Alcotest.string) "inside scope" (Some "req-7")
    (req "inside");
  check (Alcotest.option Alcotest.string) "nested scope" (Some "req-8")
    (req "nested");
  check (Alcotest.option Alcotest.string) "outer restored" (Some "req-7")
    (req "restored");
  check (Alcotest.option Alcotest.string) "explicit attr wins" (Some "mine")
    (req "explicit");
  check (Alcotest.option Alcotest.string) "after scope" None (req "after")

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)

let test_summaries_and_merge () =
  let h_get =
    Metrics.histogram "test_obs_sum_seconds" ~labels:[ ("meth", "get") ]
  in
  let h_put =
    Metrics.histogram "test_obs_sum_seconds" ~labels:[ ("meth", "put") ]
  in
  List.iter (Metrics.observe h_get) [ 0.001; 0.002; 0.003 ];
  List.iter (Metrics.observe h_put) [ 0.1; 0.2 ];
  let ours =
    List.filter (fun (name, _, _) -> name = "test_obs_sum_seconds")
      (Metrics.summaries ())
  in
  check Alcotest.int "one entry per series" 2 (List.length ours);
  let counts =
    List.map (fun (_, _, s) -> s.Sdb_util.Histogram.s_count) ours
  in
  check (Alcotest.list Alcotest.int) "sorted by labels" [ 3; 2 ] counts;
  let m = Metrics.merged_summary "test_obs_sum_seconds" in
  check Alcotest.int "merged count" 5 m.Sdb_util.Histogram.s_count;
  check (Alcotest.float 1e-9) "merged max" 0.2 m.Sdb_util.Histogram.s_max;
  check (Alcotest.float 1e-9) "merged min" 0.001 m.Sdb_util.Histogram.s_min;
  check Alcotest.int "absent family is empty" 0
    (Metrics.merged_summary "test_obs_no_such_family").Sdb_util.Histogram.s_count

let test_render_p999 () =
  let h = Metrics.histogram "test_obs_p999_seconds" in
  Metrics.observe h 0.25;
  check Alcotest.bool "0.999 quantile rendered" true
    (Helpers.contains ~needle:"test_obs_p999_seconds{quantile=\"0.999\"}"
       (Metrics.render ()))

let test_jsonl_sink () =
  let path = Filename.temp_file "sdb-obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      with_sink (Trace.jsonl_sink oc) (fun () ->
          Trace.span "a\"b" ~attrs:[ ("k", "v\n") ] ~start_s:1.5 ~dur_s:0.25);
      close_out oc;
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      check Alcotest.string "escaped json line"
        "{\"name\":\"a\\\"b\",\"start_s\":1.500000,\"dur_s\":0.250000000,\"attrs\":{\"k\":\"v\\n\"}}"
        line)

let () =
  Helpers.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter monotone" `Quick test_counter_monotone;
          Alcotest.test_case "idempotent creation" `Quick test_idempotent_creation;
          Alcotest.test_case "label isolation" `Quick test_label_isolation;
          Alcotest.test_case "gauge and histogram" `Quick test_gauge_and_histogram;
          Alcotest.test_case "enable/disable" `Quick test_enable_disable;
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
          Alcotest.test_case "summaries and merge" `Quick test_summaries_and_merge;
          Alcotest.test_case "render p999" `Quick test_render_p999;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sink ordering" `Quick test_sink_ordering;
          Alcotest.test_case "with_span on exception" `Quick test_with_span_exception;
          Alcotest.test_case "ring truncation" `Quick test_ring_truncation;
          Alcotest.test_case "tee" `Quick test_tee;
          Alcotest.test_case "ring recent" `Quick test_ring_recent;
          Alcotest.test_case "slow ring" `Quick test_slow_ring;
          Alcotest.test_case "request context" `Quick test_with_request;
          Alcotest.test_case "jsonl escaping" `Quick test_jsonl_sink;
        ] );
    ]
