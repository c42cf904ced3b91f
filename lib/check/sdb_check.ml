type mode = Shared | Update | Exclusive | Mutex

let mode_name = function
  | Shared -> "shared"
  | Update -> "update"
  | Exclusive -> "exclusive"
  | Mutex -> "mutex"

(* Strength order for assert_mode; Mutex is its own kind. *)
let rank = function Shared -> 0 | Update -> 1 | Exclusive -> 2 | Mutex -> 3

let satisfies ~held ~want =
  match (held, want) with
  | Mutex, Mutex -> true
  | Mutex, _ | _, Mutex -> false
  | h, w -> rank h >= rank w

type violation = {
  v_rule : string;
  v_message : string;
  v_stacks : (string * string) list;
}

exception Violation of violation

(* ------------------------------------------------------------------ *)
(* Global state                                                        *)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "SDB_SANITIZE" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false)

let set_enabled v = Atomic.set enabled_flag v
let enabled () = Atomic.get enabled_flag

type lock = { l_id : int; l_class : string; l_kind : [ `Vlock | `Mutex ] }

let next_lock_id = Atomic.make 0

let make_lock ?(kind = `Mutex) name =
  { l_id = Atomic.fetch_and_add next_lock_id 1; l_class = name; l_kind = kind }

type held = { h_lock : lock; mutable h_mode : mode }

(* Everything below is guarded by [st_mutex] — a raw, untracked mutex:
   the sanitizer's own lock is a leaf by construction (no instrumented
   call runs while it is held) and must not feed its own graph. *)
let st_mutex = Stdlib.Mutex.create ()

(* Per-thread hold stacks, newest first, keyed by systhread id.  An
   entry is removed as soon as its stack empties, so dead threads do
   not accumulate. *)
let threads : (int, held list ref) Hashtbl.t = Hashtbl.create 64

(* Class-level lock-order graph: edge (a, b) means some thread acquired
   class b while holding class a.  The stack recorded is the first
   observation of the edge. *)
let edges : (string * string, string) Hashtbl.t = Hashtbl.create 64
let succs : (string, string list ref) Hashtbl.t = Hashtbl.create 64

let violation_log : violation list ref = ref []

(* Re-entry probes, keyed by lock instance id: a counting read lock
   (the Vlock) registers a closure answering "does the calling thread
   hold this lock Shared according to my own ownership registry?".
   Nested Shared is then verified against the lock's ground truth
   instead of being excused on the sanitizer's say-so.  Probes survive
   [reset]: they describe live lock instances, not per-run state. *)
let reentry_probes : (int, unit -> bool) Hashtbl.t = Hashtbl.create 16

(* counters; plain ints under st_mutex except checks, which is hot *)
let n_checks = Atomic.make 0
let n_violations = ref 0
let max_depth = ref 0

type stats = { checks : int; violations : int; max_lock_depth : int }

let locked f =
  Stdlib.Mutex.lock st_mutex;
  Fun.protect ~finally:(fun () -> Stdlib.Mutex.unlock st_mutex) f

let stats () =
  locked (fun () ->
      {
        checks = Atomic.get n_checks;
        violations = !n_violations;
        max_lock_depth = !max_depth;
      })

let violations () = locked (fun () -> List.rev !violation_log)

let lock_order_edges () =
  locked (fun () ->
      Hashtbl.fold (fun e _ acc -> e :: acc) edges []
      |> List.sort compare)

let reset () =
  locked (fun () ->
      Hashtbl.reset threads;
      Hashtbl.reset edges;
      Hashtbl.reset succs;
      violation_log := [];
      Atomic.set n_checks 0;
      n_violations := 0;
      max_depth := 0)

let capture_stack () =
  Printexc.raw_backtrace_to_string (Printexc.get_callstack 48)

(* Record and raise.  Called with st_mutex held. *)
let violate ~rule ~message ~stacks =
  let v = { v_rule = rule; v_message = message; v_stacks = stacks } in
  incr n_violations;
  violation_log := v :: !violation_log;
  raise (Violation v)

let tid () = Thread.id (Thread.self ())

let set_reentry_probe l probe =
  locked (fun () -> Hashtbl.replace reentry_probes l.l_id probe)

let stack_of_thread id =
  match Hashtbl.find_opt threads id with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace threads id r;
    r

let describe_held held =
  match held with
  | [] -> "no instrumented lock"
  | l ->
    String.concat ", "
      (List.map (fun h -> Printf.sprintf "%s(%s)" h.h_lock.l_class (mode_name h.h_mode)) l)

(* Is [target] reachable from [from] in the class graph?  Returns the
   path (edge list) if so. *)
let find_path ~from ~target =
  let visited = Hashtbl.create 16 in
  let rec go node path =
    if String.equal node target then Some (List.rev path)
    else if Hashtbl.mem visited node then None
    else begin
      Hashtbl.replace visited node ();
      match Hashtbl.find_opt succs node with
      | None -> None
      | Some nexts ->
        List.fold_left
          (fun acc next ->
            match acc with
            | Some _ -> acc
            | None -> go next ((node, next) :: path))
          None !nexts
    end
  in
  go from []

let add_edge ~held_class ~new_class stack =
  if not (Hashtbl.mem edges (held_class, new_class)) then begin
    (* Before inserting, check whether the reverse direction is already
       reachable: held -> new plus an existing path new ~> held is a
       cycle, i.e. two threads can interleave into a deadlock. *)
    (match find_path ~from:new_class ~target:held_class with
    | Some path ->
      let stacks =
        ( Printf.sprintf "acquiring %s while holding %s (this thread)" new_class
            held_class,
          stack )
        :: List.map
             (fun (a, b) ->
               ( Printf.sprintf "prior acquisition of %s while holding %s" b a,
                 match Hashtbl.find_opt edges (a, b) with
                 | Some s -> s
                 | None -> "(stack not recorded)" ))
             path
      in
      violate ~rule:"lock-order"
        ~message:
          (Printf.sprintf
             "lock-order cycle: %s -> %s contradicts the established order %s"
             held_class new_class
             (String.concat " -> "
                (match path with
                | (a, _) :: _ -> a :: List.map snd path
                | [] -> [ new_class; held_class ])))
        ~stacks
    | None -> ());
    Hashtbl.replace edges (held_class, new_class) stack;
    let r =
      match Hashtbl.find_opt succs held_class with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.replace succs held_class r;
        r
    in
    if not (List.mem new_class !r) then r := new_class :: !r
  end

let note_acquire l mode =
  if enabled () then begin
    Atomic.incr n_checks;
    locked (fun () ->
        let stack = stack_of_thread (tid ()) in
        let held = !stack in
        (* Same-instance re-acquisition is self-deadlock (mutex, or a
           vlock writer mode: update excludes update) — except the
           recursive read: a vlock counts its shared holders and keeps
           a per-thread ownership registry, so nested Shared on the
           {e same} instance is part of its contract, including under a
           pending upgrade (a registered reader passes the gate; the
           old deadlock is gone and lib/schedcheck enumerates the
           interleavings to prove it).  Where the lock registered a
           re-entry probe, the claim is verified against its registry
           rather than taken from our own stack.  Same-class nesting
           across instances is a deadlock hazard once a second thread
           nests in the other order, and no code path in this repo
           needs it. *)
        let recursive_read h =
          h.h_lock.l_id = l.l_id && l.l_kind = `Vlock && mode = Shared
          && h.h_mode = Shared
        in
        (match
           List.find_opt (fun h -> String.equal h.h_lock.l_class l.l_class) held
         with
        | Some h when recursive_read h -> (
          match Hashtbl.find_opt reentry_probes l.l_id with
          | Some probe when not (probe ()) ->
            violate ~rule:"nesting"
              ~message:
                (Printf.sprintf
                   "nested shared acquisition of %s, but the lock's reader \
                    registry has no shared hold for this thread (released \
                    from another thread?)"
                   l.l_class)
              ~stacks:[ ("acquisition site", capture_stack ()) ]
          | _ -> ())
        | Some h ->
          let bt = capture_stack () in
          violate ~rule:"nesting"
            ~message:
              (Printf.sprintf
                 "%s acquisition of class %s while already holding %s in %s mode"
                 (if h.h_lock.l_id = l.l_id then "re-entrant" else "same-class")
                 l.l_class h.h_lock.l_class (mode_name h.h_mode))
            ~stacks:[ ("acquisition site", bt) ]
        | None -> ());
        if held <> [] then begin
          let bt = capture_stack () in
          List.iter
            (fun h ->
              if not (String.equal h.h_lock.l_class l.l_class) then
                add_edge ~held_class:h.h_lock.l_class ~new_class:l.l_class bt)
            held
        end;
        stack := { h_lock = l; h_mode = mode } :: held;
        let d = List.length !stack in
        if d > !max_depth then max_depth := d)
  end

(* A try-lock never waits, so it cannot close a lock-order cycle: a
   successful one only joins the thread's held stack, adding no edge
   and skipping the nesting check. *)
let note_try_acquired l mode =
  if enabled () then begin
    Atomic.incr n_checks;
    locked (fun () ->
        let stack = stack_of_thread (tid ()) in
        stack := { h_lock = l; h_mode = mode } :: !stack;
        let d = List.length !stack in
        if d > !max_depth then max_depth := d)
  end

let note_release l mode =
  if enabled () then begin
    Atomic.incr n_checks;
    locked (fun () ->
        let id = tid () in
        let stack = stack_of_thread id in
        match
          List.partition
            (fun h -> h.h_lock.l_id = l.l_id && h.h_mode = mode)
            !stack
        with
        | h :: extra, rest ->
          ignore (h : held);
          stack := extra @ rest;
          if !stack = [] then Hashtbl.remove threads id
        | [], _ ->
          violate ~rule:"nesting"
            ~message:
              (Printf.sprintf
                 "release of %s (%s) by a thread that does not hold it (holds: %s)"
                 l.l_class (mode_name mode) (describe_held !stack))
            ~stacks:[ ("release site", capture_stack ()) ])
  end

let change_mode l ~expect ~to_ ~what =
  if enabled () then begin
    Atomic.incr n_checks;
    locked (fun () ->
        let stack = stack_of_thread (tid ()) in
        match List.find_opt (fun h -> h.h_lock.l_id = l.l_id) !stack with
        | Some h when h.h_mode = expect -> h.h_mode <- to_
        | Some h ->
          violate ~rule:"mode"
            ~message:
              (Printf.sprintf "%s of %s while holding it in %s mode (need %s)"
                 what l.l_class (mode_name h.h_mode) (mode_name expect))
            ~stacks:[ (what ^ " site", capture_stack ()) ]
        | None ->
          violate ~rule:"mode"
            ~message:
              (Printf.sprintf "%s of %s by a thread that does not hold it" what
                 l.l_class)
            ~stacks:[ (what ^ " site", capture_stack ()) ])
  end

let note_upgrade l = change_mode l ~expect:Update ~to_:Exclusive ~what:"upgrade"
let note_downgrade l = change_mode l ~expect:Exclusive ~to_:Update ~what:"downgrade"

let assert_mode l want ~site =
  if enabled () then begin
    Atomic.incr n_checks;
    locked (fun () ->
        let held =
          match Hashtbl.find_opt threads (tid ()) with
          | None -> []
          | Some s -> !s
        in
        let ok =
          List.exists
            (fun h -> h.h_lock.l_id = l.l_id && satisfies ~held:h.h_mode ~want)
            held
        in
        if not ok then
          violate ~rule:"mode"
            ~message:
              (Printf.sprintf "%s: requires %s held in %s mode; thread holds %s"
                 site l.l_class (mode_name want) (describe_held held))
            ~stacks:[ (site, capture_stack ()) ])
  end

let assert_no_mutex_held_during_io ~site =
  if enabled () then begin
    Atomic.incr n_checks;
    locked (fun () ->
        let held =
          match Hashtbl.find_opt threads (tid ()) with
          | None -> []
          | Some s -> !s
        in
        match List.filter (fun h -> h.h_lock.l_kind = `Mutex) held with
        | [] -> ()
        | mutexes ->
          violate ~rule:"io"
            ~message:
              (Printf.sprintf
                 "%s: blocking I/O while holding %s — mutexes must be released \
                  before I/O (Vlock modes are allowed)"
                 site (describe_held mutexes))
            ~stacks:[ (site, capture_stack ()) ])
  end

(* ------------------------------------------------------------------ *)
(* Instrumented mutex                                                  *)

module Mu = struct
  type t = { checker : lock; m : Stdlib.Mutex.t }

  let create checker = { checker; m = Stdlib.Mutex.create () }
  let make ?(kind = `Mutex) name = create (make_lock ~kind name)

  let lock t =
    note_acquire t.checker Mutex;
    Stdlib.Mutex.lock t.m
  [@@sdb.check.allow
    "mutex-pairing: Mu.lock is the acquire primitive; Mu.unlock releases"]

  let try_lock t =
    Stdlib.Mutex.try_lock t.m
    && begin
         note_try_acquired t.checker Mutex;
         true
       end

  let unlock t =
    note_release t.checker Mutex;
    Stdlib.Mutex.unlock t.m

  let with_lock t f =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) f

  let wait c t = Condition.wait c t.m
  let checker t = t.checker
end

(* ------------------------------------------------------------------ *)
(* Guarded fields                                                      *)

module Guarded = struct
  type 'a t = { g_by : lock; g_name : string; mutable g_v : 'a }

  let create ~by ~name v = { g_by = Mu.checker by; g_name = name; g_v = v }

  let check g op =
    if enabled () then begin
      Atomic.incr n_checks;
      locked (fun () ->
          let held =
            match Hashtbl.find_opt threads (tid ()) with
            | None -> []
            | Some s -> !s
          in
          if not (List.exists (fun h -> h.h_lock.l_id = g.g_by.l_id) held) then
            violate ~rule:"guard"
              ~message:
                (Printf.sprintf "%s of field %s without holding its guard %s \
                                 (thread holds %s)"
                   op g.g_name g.g_by.l_class (describe_held held))
              ~stacks:[ (op ^ " site", capture_stack ()) ])
    end

  let get g =
    check g "read";
    g.g_v

  let set g v =
    check g "write";
    g.g_v <- v
end
