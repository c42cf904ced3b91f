(* Stateless schedule exploration over effect-based cooperative
   fibers.  Each modeled thread runs as a fiber that performs a [Step]
   effect at every scheduling point; the scheduler picks one enabled
   fiber at a time, so an execution is fully determined by the sequence
   of choices — which is what makes exhaustive DFS and replay work. *)

open Effect
open Effect.Deep

type step = {
  st_label : string;
  st_enabled : unit -> bool;  (* may the operation proceed right now? *)
  st_run : unit -> unit;  (* the atomic action, run when scheduled *)
}

type _ Effect.t += Step : step -> unit Effect.t

let always () = true
let nothing () = ()

let step ?(enabled = always) ?(run = nothing) label =
  perform (Step { st_label = label; st_enabled = enabled; st_run = run })

(* The id of the fiber currently executing (or most recently resumed).
   Single-threaded by construction: explorations never run modeled
   code concurrently, so one cell is enough. *)
let cur_tid = ref (-1)
[@@sdb.check.allow
  "global-mutable: the explorer is single-threaded by construction — \
   modeled fibers run one at a time on the exploring thread, never \
   concurrently"]
let self () = !cur_tid

let yield label = step ("yield " ^ label)

(* ------------------------------------------------------------------ *)
(* Virtual primitives                                                  *)

module Mutex = struct
  type t = { m_name : string; mutable m_owner : int option }

  let create name = { m_name = name; m_owner = None }

  let lock m =
    step ("lock " ^ m.m_name)
      ~enabled:(fun () -> m.m_owner = None)
      ~run:(fun () -> m.m_owner <- Some (self ()))

  let unlock m =
    (* Immediate: the unlock itself cannot block, and any thread step
       interleaved "before" it is already covered by schedules where
       that step ran before this thread's previous scheduling point. *)
    match m.m_owner with
    | Some id when id = self () -> m.m_owner <- None
    | Some _ -> failwith ("Schedcheck.Mutex: " ^ m.m_name ^ " unlocked by non-owner")
    | None -> failwith ("Schedcheck.Mutex: " ^ m.m_name ^ " unlocked while free")

  let atomically m label f =
    step (m.m_name ^ ": " ^ label)
      ~enabled:(fun () -> m.m_owner = None)
      ~run:(fun () ->
        m.m_owner <- Some (self ());
        Fun.protect ~finally:(fun () -> m.m_owner <- None) f)
end

module Cond = struct
  type t = { c_name : string; mutable c_parked : int list }

  let create name = { c_name = name; c_parked = [] }

  let wait c m =
    let me = self () in
    (* Park + release happens atomically with the caller's previous
       step: the thread held the mutex, so no other thread could have
       observed the in-between state anyway. *)
    (match m.Mutex.m_owner with
    | Some id when id = me -> ()
    | _ -> failwith ("Schedcheck.Cond: wait on " ^ c.c_name ^ " without the mutex"));
    m.Mutex.m_owner <- None;
    c.c_parked <- me :: c.c_parked;
    (* Wake-up: enabled once broadcast un-parks us AND the mutex is
       free; re-acquisition contends like any lock. *)
    step ("wake " ^ c.c_name)
      ~enabled:(fun () ->
        (not (List.mem me c.c_parked)) && m.Mutex.m_owner = None)
      ~run:(fun () -> m.Mutex.m_owner <- Some me)

  let broadcast c = c.c_parked <- []
end

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)

type scenario = {
  sc_threads : (string * (unit -> unit)) list;
  sc_invariant : unit -> unit;
  sc_finale : unit -> unit;
}

let scenario ?(invariant = nothing) ?(finale = nothing) threads =
  { sc_threads = threads; sc_invariant = invariant; sc_finale = finale }

(* ------------------------------------------------------------------ *)
(* One execution                                                       *)

type fstate =
  | Ready of step * (unit, unit) continuation
  | Finished

type fiber = { f_tid : int; f_name : string; mutable f_state : fstate }

type exec_end =
  | E_complete
  | E_deadlock of (int * string) list
  | E_raised of exn
  | E_step_bound

(* Run one execution along [choices] (extending with first-enabled
   when the prefix runs out).  Returns how it ended, the decision
   points seen ((choice, alternatives), only where alternatives > 1 —
   forced steps are not decisions and are not backtracked over), and
   the trace.  With [max_preemptions], switching away from a fiber that
   could have run on counts as a preemption, and once the budget is
   spent that fiber's next step is forced. *)
let run_execution ?max_preemptions ~make ~choices ~max_steps () =
  let sc = make () in
  let failure = ref None in
  let fibers =
    List.mapi
      (fun i (name, _) -> { f_tid = i; f_name = name; f_state = Finished })
      sc.sc_threads
  in
  let start fb fn =
    let handler =
      {
        retc = (fun () -> fb.f_state <- Finished);
        exnc =
          (fun e ->
            fb.f_state <- Finished;
            if !failure = None then failure := Some e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Step s ->
              Some
                (fun (k : (a, unit) continuation) ->
                  fb.f_state <- Ready (s, k))
            | _ -> None);
      }
    in
    cur_tid := fb.f_tid;
    match_with fn () handler
  in
  List.iter2 (fun fb (_, fn) -> start fb fn) fibers sc.sc_threads;
  let decisions = ref [] (* (chosen, n_enabled), newest first *) in
  let trace = ref [] in
  let steps = ref 0 in
  let remaining = ref choices in
  let last = ref None and preemptions = ref 0 in
  let rec loop () =
    match !failure with
    | Some e -> E_raised e
    | None -> (
      let enabled =
        List.filter
          (fun fb ->
            match fb.f_state with
            | Ready (s, _) -> s.st_enabled ()
            | Finished -> false)
          fibers
      in
      match enabled with
      | [] ->
        let alive =
          List.filter_map
            (fun fb ->
              match fb.f_state with
              | Finished -> None
              | Ready _ -> Some (fb.f_tid, fb.f_name))
            fibers
        in
        if alive = [] then
          match sc.sc_finale () with
          | () -> E_complete
          | exception e -> E_raised e
        else E_deadlock alive
      | _ ->
        let last_enabled = List.find_opt (fun fb -> Some fb.f_tid = !last) enabled in
        let enabled =
          match (last_enabled, max_preemptions) with
          | Some fb, Some bound when !preemptions >= bound -> [ fb ]
          | _ -> enabled
        in
        let n = List.length enabled in
        let choice =
          if n = 1 then 0
          else
            match !remaining with
            | [] -> 0
            | c :: rest ->
              remaining := rest;
              if c >= n then
                invalid_arg "Schedcheck: schedule diverged (choice out of range)"
              else c
        in
        if n > 1 then decisions := (choice, n) :: !decisions;
        let fb = List.nth enabled choice in
        (match last_enabled with
        | Some prev when prev != fb -> incr preemptions
        | _ -> ());
        last := Some fb.f_tid;
        (match fb.f_state with
        | Finished -> assert false
        | Ready (s, k) ->
          incr steps;
          if !steps > max_steps then E_step_bound
          else begin
            trace := (fb.f_tid, fb.f_name, s.st_label) :: !trace;
            match
              cur_tid := fb.f_tid;
              s.st_run ();
              continue k ()
            with
            | () -> (
              match sc.sc_invariant () with
              | () -> loop ()
              | exception e -> E_raised e)
            | exception e -> E_raised e
          end))
  in
  let ended = loop () in
  (ended, List.rev !decisions, List.rev !trace)

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)

type trace_entry = { te_tid : int; te_thread : string; te_label : string }

type report = {
  r_schedule : int list;
  r_trace : trace_entry list;
  r_blocked : (int * string) list;
}

type outcome =
  | Passed of { executions : int }
  | Deadlocked of report
  | Violated of { exn_text : string; report : report }
  | Step_bound_exceeded of report
  | Schedule_bound_exceeded of { executions : int }

let to_trace raw =
  List.map (fun (tid, name, lbl) -> { te_tid = tid; te_thread = name; te_label = lbl }) raw

let to_report ?(blocked = []) decisions raw_trace =
  {
    r_schedule = List.map fst decisions;
    r_trace = to_trace raw_trace;
    r_blocked = blocked;
  }

(* The next DFS prefix: deepest decision with an unexplored sibling,
   bumped; everything after it dropped.  None = space exhausted. *)
let backtrack decisions =
  let arr = Array.of_list decisions in
  let rec scan i =
    if i < 0 then None
    else
      let choice, n = arr.(i) in
      if choice + 1 < n then
        Some (List.map fst (Array.to_list (Array.sub arr 0 i)) @ [ choice + 1 ])
      else scan (i - 1)
  in
  scan (Array.length arr - 1)

let explore ?(max_schedules = 200_000) ?(max_steps = 20_000) ?max_preemptions make =
  let rec go prefix executions =
    if executions >= max_schedules then
      Schedule_bound_exceeded { executions }
    else
      let ended, decisions, raw =
        run_execution ?max_preemptions ~make ~choices:prefix ~max_steps ()
      in
      let executions = executions + 1 in
      match ended with
      | E_complete -> (
        match backtrack decisions with
        | None -> Passed { executions }
        | Some prefix -> go prefix executions)
      | E_deadlock blocked -> Deadlocked (to_report ~blocked decisions raw)
      | E_raised e ->
        Violated { exn_text = Printexc.to_string e; report = to_report decisions raw }
      | E_step_bound -> Step_bound_exceeded (to_report decisions raw)
  in
  go [] 0

let replay ?max_preemptions make ~schedule =
  let ended, decisions, raw =
    run_execution ?max_preemptions ~make ~choices:schedule ~max_steps:1_000_000 ()
  in
  let outcome =
    match ended with
    | E_complete -> Passed { executions = 1 }
    | E_deadlock blocked -> Deadlocked (to_report ~blocked decisions raw)
    | E_raised e ->
      Violated { exn_text = Printexc.to_string e; report = to_report decisions raw }
    | E_step_bound -> Step_bound_exceeded (to_report decisions raw)
  in
  (outcome, to_trace raw)

let pp_report b r =
  Buffer.add_string b
    (Printf.sprintf "schedule: [%s]\n"
       (String.concat "; " (List.map string_of_int r.r_schedule)));
  if r.r_blocked <> [] then
    Buffer.add_string b
      (Printf.sprintf "blocked: %s\n"
         (String.concat ", "
            (List.map (fun (tid, n) -> Printf.sprintf "%d:%s" tid n) r.r_blocked)));
  Buffer.add_string b "trace:\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  %d:%-10s %s\n" e.te_tid e.te_thread e.te_label))
    r.r_trace

let pp_outcome o =
  let b = Buffer.create 256 in
  (match o with
  | Passed { executions } ->
    Buffer.add_string b
      (Printf.sprintf "passed: %d schedules explored exhaustively" executions)
  | Deadlocked r ->
    Buffer.add_string b "DEADLOCK\n";
    pp_report b r
  | Violated { exn_text; report } ->
    Buffer.add_string b (Printf.sprintf "VIOLATION: %s\n" exn_text);
    pp_report b report
  | Step_bound_exceeded r ->
    Buffer.add_string b "STEP BOUND EXCEEDED (livelock?)\n";
    pp_report b r
  | Schedule_bound_exceeded { executions } ->
    Buffer.add_string b
      (Printf.sprintf "schedule bound exceeded after %d executions" executions));
  Buffer.contents b
