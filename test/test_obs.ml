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

(* A histogram series keeps buckets, not samples: its quantiles are
   estimates within 6.25% of the exact ones, everything else is exact. *)

let snapshot_of_samples name samples =
  let h = Metrics.histogram name in
  let exact = Sdb_util.Histogram.create () in
  List.iter
    (fun v ->
      Metrics.observe h v;
      Sdb_util.Histogram.record exact v)
    samples;
  (Metrics.histogram_snapshot h, Sdb_util.Histogram.snapshot exact)

(* Lognormal around 1 ms: 10^5 values spanning microseconds to about a
   second, Box-Muller over a seeded stream. *)
let lognormal_samples ~seed n =
  let rng = Sdb_util.Rng.create ~seed in
  List.init n (fun _ ->
      let u1 = 1.0 -. Sdb_util.Rng.float rng 1.0 and u2 = Sdb_util.Rng.float rng 1.0 in
      let z = Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2) in
      Float.exp (Float.log 1e-3 +. (1.5 *. z)))

let test_histogram_accuracy () =
  let got, want =
    snapshot_of_samples "test_obs_accuracy_seconds" (lognormal_samples ~seed:2020 100_000)
  in
  let module H = Sdb_util.Histogram in
  check Alcotest.int "count exact" want.H.s_count got.H.s_count;
  check (Alcotest.float 0.0) "sum exact" want.H.s_total got.H.s_total;
  check (Alcotest.float 0.0) "min exact" want.H.s_min got.H.s_min;
  check (Alcotest.float 0.0) "max exact" want.H.s_max got.H.s_max;
  check (Alcotest.float 0.0) "mean exact" want.H.s_mean got.H.s_mean;
  List.iter
    (fun (name, est, exact) ->
      let err = Float.abs (est -. exact) /. exact in
      if err > 0.0625 then
        Alcotest.failf "%s: estimate %g vs exact %g (%.2f%% off)" name est exact
          (err *. 100.0))
    [
      ("p50", got.H.s_p50, want.H.s_p50);
      ("p90", got.H.s_p90, want.H.s_p90);
      ("p99", got.H.s_p99, want.H.s_p99);
      ("p999", got.H.s_p999, want.H.s_p999);
    ]

let test_histogram_edges () =
  let module H = Sdb_util.Histogram in
  (* Zero and a value below 2^-32 share the bottom bucket, which reads
     as the exact min at every quantile. *)
  let low, _ = snapshot_of_samples "test_obs_edge_low_seconds" [ 0.0; 1e-12; 1e-12 ] in
  check (Alcotest.float 0.0) "low min exact" 0.0 low.H.s_min;
  check (Alcotest.float 0.0) "low max exact" 1e-12 low.H.s_max;
  check (Alcotest.float 0.0) "below range reads as min" 0.0 low.H.s_p50;
  (* Values of 2^32 and up share the top bucket, read as the exact max. *)
  let high, _ = snapshot_of_samples "test_obs_edge_high_seconds" [ 1e10; 1e10; 1e12 ] in
  check (Alcotest.float 0.0) "high min exact" 1e10 high.H.s_min;
  check (Alcotest.float 0.0) "high max exact" 1e12 high.H.s_max;
  check (Alcotest.float 0.0) "above range reads as max" 1e12 high.H.s_p50;
  (* One sample in range: the clamp makes every quantile exact. *)
  let one, _ = snapshot_of_samples "test_obs_edge_one_seconds" [ 0.25 ] in
  check (Alcotest.float 0.0) "single sample p50" 0.25 one.H.s_p50;
  check (Alcotest.float 0.0) "single sample p999" 0.25 one.H.s_p999

let test_histogram_reset () =
  let h = Metrics.histogram "test_obs_hreset_seconds" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0 ];
  Metrics.reset ();
  let s = Metrics.histogram_snapshot h in
  check Alcotest.int "emptied" 0 s.Sdb_util.Histogram.s_count;
  check (Alcotest.float 0.0) "sum zeroed" 0.0 s.Sdb_util.Histogram.s_total;
  Metrics.observe h 5.0;
  let s = Metrics.histogram_snapshot h in
  check Alcotest.int "handle still live" 1 s.Sdb_util.Histogram.s_count;
  check (Alcotest.float 0.0) "min restarts" 5.0 s.Sdb_util.Histogram.s_min;
  check (Alcotest.float 0.0) "max restarts" 5.0 s.Sdb_util.Histogram.s_max

let test_histogram_bounded () =
  let h = Metrics.histogram "test_obs_bounded_seconds" in
  for i = 1 to 10 do
    Metrics.observe h (float_of_int i *. 1e-4)
  done;
  let words_10 = Obj.reachable_words (Obj.repr h) in
  for i = 11 to 1_000_000 do
    Metrics.observe h (float_of_int (i mod 5000) *. 1e-4)
  done;
  check Alcotest.int "observations" 1_000_000
    (Metrics.histogram_snapshot h).Sdb_util.Histogram.s_count;
  check Alcotest.int "same size after 10^6 observations" words_10
    (Obj.reachable_words (Obj.repr h))

(* Two domains and two threads record into one series while a third
   thread keeps reading the family; integer-valued samples make the
   float sum exact whatever the interleaving. *)
let test_histogram_concurrent () =
  let name = "test_obs_concurrent_seconds" in
  let h = Metrics.histogram name in
  let per_writer = 50_000 in
  let record () =
    for i = 1 to per_writer do
      Metrics.observe h (float_of_int (i mod 1000))
    done
  in
  let failure = ref None in
  let guard f () = try f () with e -> failure := Some e in
  let stop = Atomic.make false in
  let reader =
    Thread.create
      (guard (fun () ->
           while not (Atomic.get stop) do
             ignore (Metrics.merged_summary name : Sdb_util.Histogram.snapshot);
             Thread.yield ()
           done))
      ()
  in
  let domains = List.init 2 (fun _ -> Domain.spawn record) in
  let threads = List.init 2 (fun _ -> Thread.create (guard record) ()) in
  List.iter Domain.join domains;
  List.iter Thread.join threads;
  Atomic.set stop true;
  Thread.join reader;
  Option.iter raise !failure;
  let s = Metrics.merged_summary name in
  let writers = 4 in
  (* Per writer: 50 full rounds of 0..999, each summing to 499,500. *)
  let per_writer_sum = float_of_int (per_writer / 1000 * 499_500) in
  check Alcotest.int "count exact" (writers * per_writer) s.Sdb_util.Histogram.s_count;
  check (Alcotest.float 0.0) "sum exact"
    (float_of_int writers *. per_writer_sum)
    s.Sdb_util.Histogram.s_total;
  check (Alcotest.float 0.0) "min" 0.0 s.Sdb_util.Histogram.s_min;
  check (Alcotest.float 0.0) "max" 999.0 s.Sdb_util.Histogram.s_max

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
          Trace.span "inside" ~start_s:1.0 ~dur_s:0.0;
          Trace.with_request "req-8" (fun () ->
              Trace.span "nested" ~start_s:2.0 ~dur_s:0.0);
          (* The outer id is restored after the nested scope. *)
          Trace.span "restored" ~start_s:3.0 ~dur_s:0.0;
          (* An explicit req attr wins over the ambient context. *)
          Trace.span "explicit" ~attrs:[ ("req", "mine") ] ~start_s:4.0
            ~dur_s:0.0);
      Trace.span "after" ~start_s:5.0 ~dur_s:0.0);
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

(* Spans emitted by two domains, each inside its own request scope,
   carry their own domain's id: the request context is keyed by a
   thread id that is unique across domains. *)
let test_with_request_domains () =
  let ring = Trace.Ring.create ~capacity:4096 in
  with_sink (Trace.Ring.sink ring) (fun () ->
      let worker d =
        Domain.spawn (fun () ->
            let id = Printf.sprintf "req-d%d" d in
            Trace.with_request id (fun () ->
                for i = 1 to 500 do
                  Trace.span id ~start_s:(float_of_int i) ~dur_s:0.0
                done))
      in
      List.iter Domain.join [ worker 1; worker 2 ]);
  let spans = Trace.Ring.contents ring in
  check Alcotest.int "every span kept" 1000 (List.length spans);
  List.iter
    (fun s ->
      check (Alcotest.option Alcotest.string) "span carries its domain's req"
        (Some s.Trace.name) (List.assoc_opt "req" s.Trace.attrs))
    spans

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
          Alcotest.test_case "histogram accuracy" `Quick test_histogram_accuracy;
          Alcotest.test_case "histogram edge buckets" `Quick test_histogram_edges;
          Alcotest.test_case "histogram reset" `Quick test_histogram_reset;
          Alcotest.test_case "histogram bounded" `Quick test_histogram_bounded;
          Alcotest.test_case "histogram concurrent" `Quick test_histogram_concurrent;
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
          Alcotest.test_case "request context across domains" `Quick
            test_with_request_domains;
          Alcotest.test_case "jsonl escaping" `Quick test_jsonl_sink;
        ] );
    ]
