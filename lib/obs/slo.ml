(* Latency SLOs as rotating-bucket sliding windows.

   A target like "p99 ≤ 25 ms over the last minute" is tracked as a
   threshold plus an error budget: every request slower than the
   objective (or failing outright) is a *bad event*, and the SLO holds
   while the bad fraction over the window stays within the budget
   (budget 0.01 ⇔ 99% of requests within the objective ⇔ p99 ≤
   objective).  The window is a ring of fixed-width buckets rotated by
   wall-clock time, so memory is constant no matter the request rate
   and old traffic ages out bucket by bucket rather than all at once.

   The clock is injectable for tests; see [rotate] for the two
   clock-step edge cases (backward steps never rotate, a forward step
   past the whole window empties it). *)

type bucket = { mutable b_total : int; mutable b_bad : int }

type t = {
  name : string;
  objective_s : float;
  budget : float;
  bucket_s : float;
  buckets : bucket array;
  now : unit -> float;
  mu : Sdb_check.Mu.t;
  mutable epoch : int; (* floor(now / bucket_s) of the newest bucket *)
}

type report = {
  r_name : string;
  r_total : int;
  r_bad : int;
  r_bad_fraction : float;
  r_budget : float;
  r_burn : float;
  r_pass : bool;
  r_window_s : float;
}

let create ?(now = Unix.gettimeofday) ?(window_s = 60.0) ?(buckets = 6) ~name
    ~objective_ms ~budget () =
  if objective_ms <= 0.0 then invalid_arg "Slo.create: objective_ms must be positive";
  if budget <= 0.0 || budget >= 1.0 then
    invalid_arg "Slo.create: budget must be in (0,1)";
  if buckets <= 0 then invalid_arg "Slo.create: buckets must be positive";
  if window_s <= 0.0 then invalid_arg "Slo.create: window_s must be positive";
  let bucket_s = window_s /. float_of_int buckets in
  {
    name;
    objective_s = objective_ms /. 1000.0;
    budget;
    bucket_s;
    buckets = Array.init buckets (fun _ -> { b_total = 0; b_bad = 0 });
    now;
    mu = Sdb_check.Mu.make "obs.slo";
    epoch = int_of_float (Float.floor (now () /. (window_s /. float_of_int buckets)));
  }

let objective_ms t = t.objective_s *. 1000.0
let window_s t = t.bucket_s *. float_of_int (Array.length t.buckets)

(* Advance the ring to the bucket holding [now], zeroing every bucket
   the clock skipped over.  Two deliberate edge cases:
   - a clock stepped *backward* (cur < epoch) does not rotate: samples
     keep landing in the newest bucket, and no history is dropped;
   - a forward step of a whole window or more empties every bucket
     rather than wrapping stale counts into the "new" time range. *)
let rotate t =
  let cur = int_of_float (Float.floor (t.now () /. t.bucket_s)) in
  if cur > t.epoch then begin
    let n = Array.length t.buckets in
    let skipped = cur - t.epoch in
    let zero b =
      b.b_total <- 0;
      b.b_bad <- 0
    in
    if skipped >= n then Array.iter zero t.buckets
    else
      for e = t.epoch + 1 to cur do
        zero t.buckets.(e mod n)
      done;
    t.epoch <- cur
  end

let record_event t ~bad =
  Sdb_check.Mu.with_lock t.mu (fun () ->
      rotate t;
      let b = t.buckets.(t.epoch mod Array.length t.buckets) in
      b.b_total <- b.b_total + 1;
      if bad then b.b_bad <- b.b_bad + 1)

let record t latency_s = record_event t ~bad:(latency_s > t.objective_s)
let record_failure t = record_event t ~bad:true

let report t =
  Sdb_check.Mu.with_lock t.mu (fun () ->
      rotate t;
      let total = ref 0 and bad = ref 0 in
      Array.iter
        (fun b ->
          total := !total + b.b_total;
          bad := !bad + b.b_bad)
        t.buckets;
      let bad_fraction =
        if !total = 0 then 0.0 else float_of_int !bad /. float_of_int !total
      in
      {
        r_name = t.name;
        r_total = !total;
        r_bad = !bad;
        r_bad_fraction = bad_fraction;
        r_budget = t.budget;
        r_burn = bad_fraction /. t.budget;
        r_pass = bad_fraction <= t.budget;
        r_window_s = window_s t;
      })

(* One collector per SLO pushes the current window's numbers into
   gauges just before each render, so the Prometheus endpoint shows
   burn rate and compliance without the SLO owner polling. *)
let expose t =
  let labels = [ ("slo", t.name) ] in
  let g_burn =
    Metrics.gauge "sdb_slo_burn_rate"
      ~help:"Bad fraction over the window divided by the error budget (1.0 = burning exactly at budget)."
      ~labels
  and g_bad =
    Metrics.gauge "sdb_slo_bad_fraction"
      ~help:"Fraction of window requests over the objective (or failed)." ~labels
  and g_requests =
    Metrics.gauge "sdb_slo_window_requests"
      ~help:"Requests observed in the sliding window." ~labels
  and g_compliant =
    Metrics.gauge "sdb_slo_compliant"
      ~help:"1 while the SLO holds over the window, else 0." ~labels
  and g_objective =
    Metrics.gauge "sdb_slo_objective_seconds"
      ~help:"Latency objective: a slower request burns budget." ~labels
  and g_budget =
    Metrics.gauge "sdb_slo_budget"
      ~help:"Allowed bad fraction over the window." ~labels
  in
  Metrics.register_collector ~name:("slo:" ^ t.name) (fun () ->
      let r = report t in
      Metrics.set_gauge g_burn r.r_burn;
      Metrics.set_gauge g_bad r.r_bad_fraction;
      Metrics.set_gauge g_requests (float_of_int r.r_total);
      Metrics.set_gauge g_compliant (if r.r_pass then 1.0 else 0.0);
      Metrics.set_gauge g_objective t.objective_s;
      Metrics.set_gauge g_budget t.budget)
