type state = Alive | Suspect | Dead

let state_to_string = function
  | Alive -> "alive"
  | Suspect -> "suspect"
  | Dead -> "dead"

type config = {
  heartbeat_interval_s : float;
  suspect_after_s : float;
  dead_after_s : float;
}

let default_config =
  { heartbeat_interval_s = 1.0; suspect_after_s = 3.0; dead_after_s = 10.0 }

let validate_config c =
  if c.heartbeat_interval_s <= 0.0 then
    invalid_arg "Detector: heartbeat_interval_s <= 0";
  if c.suspect_after_s < c.heartbeat_interval_s then
    invalid_arg "Detector: suspect_after_s < heartbeat_interval_s";
  if c.dead_after_s < c.suspect_after_s then
    invalid_arg "Detector: dead_after_s < suspect_after_s"

type transition = {
  tr_from : state;
  tr_to : state;
  tr_cause : [ `Success | `Failure | `Timeout ];
}

type t = {
  config : config;
  mutable st : state;
  mutable last_ok_s : float;  (* monotonic (or virtual) time *)
  mutable inflight : bool;
}

let create ~now config =
  validate_config config;
  { config; st = Alive; last_ok_s = now; inflight = false }

let state t = t.st
let last_ok_age t ~now = Float.max 0.0 (now -. t.last_ok_s)
let probe_started t = t.inflight <- true

let move t cause to_ =
  if t.st = to_ then None
  else begin
    let tr = { tr_from = t.st; tr_to = to_; tr_cause = cause } in
    t.st <- to_;
    Some tr
  end

(* Demotion by age alone: the shared arbiter for [tick] and
   [probe_failed], so the two paths can never disagree on thresholds.
   Never returns a state better than the current one. *)
let demoted t ~now =
  let age = last_ok_age t ~now in
  if age >= t.config.dead_after_s then Dead
  else if age >= t.config.suspect_after_s then
    match t.st with Alive | Suspect -> Suspect | Dead -> Dead
  else t.st

let probe_succeeded t ~now =
  t.inflight <- false;
  t.last_ok_s <- now;
  move t `Success Alive

let probe_failed t ~now =
  t.inflight <- false;
  (* An explicit failure is stronger evidence than mere silence: it
     demotes Alive to Suspect at once, without waiting out
     suspect_after_s.  Dead still requires the full quiet period. *)
  let next =
    match demoted t ~now with
    | Alive -> Suspect
    | (Suspect | Dead) as s -> s
  in
  move t `Failure next

let tick t ~now = move t `Timeout (demoted t ~now)
