(* The commit pipeline (DESIGN.md §4d), functored over its mutex and
   lock as Vlock_core is: the engine runs [Make (Thread_mu) (Vlock)],
   and Sdb_schedcheck exhausts the same code over virtual primitives.
   The parameters are named after the modules they stand for, so
   sdb_modecheck recognizes the coordinator's acquisitions.

   Every update pickles under Update and is a member of a group: take
   Update, fold, log, upgrade, publish — one hold, the paper's
   protocol.  Without group commit each caller seals its own group of
   one.  With it, a member joins the forming group, whose first member
   leads it: claim the commit slot, linger for the callers expected
   back, then commit the sealed group the same way, with one log write
   and one fsync for all of its members.  The fold runs each member's
   precondition against the state folded so far, in stage order, so a
   precondition sees every earlier update; a member it refuses, or
   whose precondition raises, leaves the group before anything is
   staged, and learns so when the group commits.  If the group fails,
   so do they: what refused them may never commit.

   The linger waits for callers, not for a queue.  A closed-loop client
   is away between its commits — a round trip, a think — so at the
   moment a leader decides, nobody may be queued although the previous
   group's callers are about to come back.  The coordinator learns, per
   calling thread, its last gap between a commit returning and its next
   entering, and the leader waits for each caller outside its group
   whose gap is within one log write and fsync (the last one measured):
   going alone would make that caller wait out this group's fsync and
   then its own.  A caller is awaited until that log time after its
   return, and no wait outlasts [max_group_delay] after the group
   formed; it ends at once when every awaited caller has joined or the
   group is full.  A caller with no measured gap, or a longer one, is
   never awaited, so a lone updater never lingers. *)

module Vlock_core = Sdb_vlock.Vlock_core
module Trace = Sdb_obs.Trace

module type MU = sig
  type t
  type cond
  type 'a cell  (* a mutable cell guarded by a mutex *)

  val make : string -> t  (* a mutex of the named lock class *)
  val make_cond : unit -> cond
  val lock : t -> unit
  val unlock : t -> unit
  val with_lock : t -> (unit -> 'a) -> 'a  (* a section that neither blocks nor raises *)
  val wait : cond -> t -> unit
  val broadcast : cond -> unit
  val cell : by:t -> name:string -> 'a -> 'a cell
  val get : 'a cell -> 'a
  val set : 'a cell -> 'a -> unit
  val now : unit -> float  (* seconds: gaps, log times, the linger's bound *)
  val before : float -> bool  (* [now () < t], allocating nothing: the linger's poll *)
  val yield : unit -> unit  (* between two polls of the linger: lets others run *)
  val self : unit -> int  (* the calling thread: whose gap a commit measures *)
end

module type VLOCK = sig
  type t

  val acquire : t -> Vlock_core.mode -> unit
  val release : t -> Vlock_core.mode -> unit
  val upgrade : t -> unit
end

module Thread_mu = struct
  type t = Sdb_check.Mu.t
  type cond = Condition.t
  type 'a cell = 'a Sdb_check.Guarded.t

  let make name = Sdb_check.Mu.make name
  let make_cond = Condition.create
  let lock = Sdb_check.Mu.lock
  let unlock = Sdb_check.Mu.unlock
  let with_lock = Sdb_check.Mu.with_lock
  let wait = Sdb_check.Mu.wait
  let broadcast = Condition.broadcast
  let cell ~by ~name v = Sdb_check.Guarded.create ~by ~name v
  let get = Sdb_check.Guarded.get
  let set = Sdb_check.Guarded.set
  let now = Unix.gettimeofday

  (* [Unix.gettimeofday] called directly returns an unboxed float. *)
  let before t = Unix.gettimeofday () < t

  (* A short sleep, not [Thread.yield]: a leader spinning on a core keeps
     it from the caller it awaits, which needs one to come back on. *)
  let yield () = Thread.delay 2e-5
  let self () = Thread.id (Thread.self ())
end

(* The longest a leader lingers for joiners (lingering longer than one
   fsync is never a win), and the group size that ends the linger. *)
let max_group_delay = 0.002
let max_group_bytes = 1 lsl 20

let m_linger =
  Sdb_obs.Metrics.histogram "sdb_group_linger_seconds"
    ~help:"Time a group leader waited for the callers expected back (one \
           sample per leader that awaited any)."

(* A member's outcome: [Pending] until its group settles it. *)
type outcome = Pending | Committed | Refused | Failed of exn

(* The engine's steps, called with the engine instance ['c] and the
   sealed members' payloads in stage order.  Under Update, [fold]
   computes the group's next version ['v] and, per member in order,
   [Pending] to admit it, or [Refused] or [Failed e] to leave it out;
   [log] is the commit point of every admitted member.  Under
   Exclusive, [publish] makes the version current; [notify] gets the
   admitted payloads and the published version and runs with no lock
   held (but the slot, when one is claimed, so groups notify in LSN
   order).  [fold] and [log] raise on failure, having decided whether
   it poisons (a fold never does: nothing is staged yet); the other
   members, left out or not, then raise [member_failure ctx e]. *)
type ('c, 'm, 'v) engine = {
  size : 'm -> int;  (* framed log bytes of one member *)
  fold : 'c -> 'm list -> 'v * outcome list;
  log : 'c -> 'm list -> unit;
  publish : 'c -> 'v -> unit;
  notify : 'c -> 'm list -> 'v -> unit;
  member_failure : 'c -> exn -> exn;
}

module Make (Mu : MU) (Vlock : VLOCK) : sig
  type 'm t

  val create : name:string -> grouped:bool -> Vlock.t -> 'm t

  val commit :
    'm t -> ('c, 'm, 'v) engine -> 'c -> (unit -> 'm) -> [ `Committed | `Refused ]
  (** [commit c engine ctx prepare] commits one member.  [prepare]
      runs under Update and pickles; its exception leaves nothing
      committed.  Returns once the member is durable and published, or
      once the fold refused it; raises the exception its precondition
      raised, or its group's failure. *)

  val idle : 'm t -> bool
  (** No group forming and the slot free.  Reads without the mutex: for
      schedule-exploration finales only. *)
end = struct
  (* A calling thread, by [Mu.self]: when its last commit returned, how
     long it then stayed away before entering the next (infinite until
     measured), the last group it joined and the last group whose
     leader awaited it.  Guarded by the coordinator's mutex. *)
  type caller = {
    mutable returned : float;
    mutable gap : float;
    mutable joined : int;
    mutable awaited : int;
  }

  let fresh_caller returned = { returned; gap = infinity; joined = -1; awaited = -1 }

  type 'm member = { payload : 'm; caller : caller; mutable outcome : outcome }

  type 'm group = {
    no : int;
    mutable members : 'm member list;  (* reverse join order *)
    mutable bytes : int;
    born : float;
    mutable missing : int;  (* awaited callers not yet joined *)
    settled : bool Atomic.t;  (* the linger may end: what the poll reads *)
  }

  (* The forming group, the commit slot, the condition variable the
     slot's claimant and the members park on, and the callers, all
     guarded by [mutex].  Only leaders claim the slot, and a group seals
     only once its leader holds it, so at most one claimant waits.
     [log_s] is the last group's log write and fsync, set under
     Update. *)
  type 'm t = {
    name : string;
    grouped : bool;
    lock : Vlock.t;
    mutex : Mu.t;
    cond : Mu.cond;
    forming : 'm group option Mu.cell;
    formed : int Mu.cell;  (* groups formed, numbering them *)
    busy : bool Mu.cell;  (* a leader holds the slot *)
    callers : (int, caller) Hashtbl.t Mu.cell;
    log_s : float Atomic.t;
  }

  let create ~name ~grouped lock =
    let mutex = Mu.make ("smalldb.gc:" ^ name) in
    {
      name;
      grouped;
      lock;
      mutex;
      cond = Mu.make_cond ();
      forming = Mu.cell ~by:mutex ~name:"gc_forming" None;
      formed = Mu.cell ~by:mutex ~name:"gc_formed" 0;
      busy = Mu.cell ~by:mutex ~name:"gc_busy" false;
      callers = Mu.cell ~by:mutex ~name:"gc_callers" (Hashtbl.create 8);
      log_s = Atomic.make 0.0;
    }

  let idle c = Mu.get c.forming = None && not (Mu.get c.busy)
  let is_pending m = match m.outcome with Pending -> true | _ -> false

  let join_span c ~role t0 =
    Trace.span "update.join"
      ~attrs:[ ("app", c.name); ("role", role) ]
      ~start_s:t0 ~dur_s:(Mu.now () -. t0)

  let claim_slot c =
    Mu.lock c.mutex;
    while Mu.get c.busy do
      Mu.wait c.cond c.mutex
    done;
    Mu.set c.busy true;
    Mu.unlock c.mutex

  (* A leader's commit returns when it gives up the slot. *)
  let release_slot c leader =
    Mu.with_lock c.mutex (fun () ->
        leader.returned <- Mu.now ();
        Mu.set c.busy false;
        Mu.broadcast c.cond)
  [@@sdb.noblock]

  (* Settle the parked members — all but the first, the caller — once
     per commit, after the lock is released and before notifying; their
     commits return now. *)
  let settle c = function
    | [] | [ _ ] -> ()
    | _ :: parked ->
      Mu.with_lock c.mutex (fun () ->
          let now = Mu.now () in
          List.iter
            (fun (m, o) ->
              m.outcome <- o;
              m.caller.returned <- now)
            parked;
          Mu.broadcast c.cond)
  [@@sdb.noblock]

  (* Commit a group under one continuous hold: Update from [seal] (which
     names the members) through the fold — at the seal, not at join, so
     it includes every earlier group — and the log write, Exclusive for
     the publish.  A group whose fold admits nobody logs and publishes
     nothing.  The members it leaves out are settled with the
     admitted ones, once the log write has succeeded: their
     preconditions saw the admitted members before them.  Any failure
     releases the lock, fails every member with it and re-raises it to
     the caller.  Returns the caller's outcome. *)
  let run c engine ctx seal =
    Vlock.acquire c.lock Vlock_core.Update;
    let held = ref Vlock_core.Update in
    let members = ref [] in
    match
      Fun.protect
        ~finally:(fun () -> Vlock.release c.lock !held)
        (fun () ->
          members := seal ();
          let next, outcomes = engine.fold ctx (List.map (fun m -> m.payload) !members) in
          let outcomes = List.combine !members outcomes in
          let admitted =
            List.filter_map (function m, Pending -> Some m.payload | _ -> None) outcomes
          in
          if admitted <> [] then begin
            let t0 = Mu.now () in
            engine.log ctx admitted;
            Atomic.set c.log_s (Mu.now () -. t0);
            Vlock.upgrade c.lock;
            held := Vlock_core.Exclusive;
            engine.publish ctx next
          end;
          (outcomes, admitted, next))
    with
    | outcomes, admitted, next ->
      let outcomes =
        List.map (function m, Pending -> (m, Committed) | settled -> settled) outcomes
      in
      settle c outcomes;
      if admitted <> [] then engine.notify ctx admitted next;
      snd (List.hd outcomes)
    | exception e ->
      let failed = Failed (engine.member_failure ctx e) in
      settle c (List.map (fun m -> (m, failed)) !members);
      raise e
  [@@sdb.acquires exclusive]

  (* The calling thread's record, measuring its gap on the way in. *)
  let caller c ~entered =
    let callers = Mu.get c.callers and id = Mu.self () in
    match Hashtbl.find_opt callers id with
    | Some k ->
      k.gap <- entered -. k.returned;
      k
    | None ->
      let k = fresh_caller entered in
      Hashtbl.replace callers id k;
      k

  (* Pickle under Update, then join the forming group, or create it and
     lead it.  A joiner the leader awaits counts itself in. *)
  let join c engine ~entered prepare =
    Vlock.acquire c.lock Vlock_core.Update;
    Fun.protect
      ~finally:(fun () -> Vlock.release c.lock Vlock_core.Update)
      (fun () ->
        let payload = prepare () in
        let bytes = engine.size payload in
        Mu.with_lock c.mutex (fun () ->
            let k = caller c ~entered in
            let m = { payload; caller = k; outcome = Pending } in
            match Mu.get c.forming with
            | Some g ->
              g.members <- m :: g.members;
              g.bytes <- g.bytes + bytes;
              k.joined <- g.no;
              if k.awaited = g.no then begin
                g.missing <- g.missing - 1;
                if g.missing = 0 then Atomic.set g.settled true
              end;
              if g.bytes >= max_group_bytes then Atomic.set g.settled true;
              `Member m
            | None ->
              let no = Mu.get c.formed in
              Mu.set c.formed (no + 1);
              let g =
                {
                  no;
                  members = [ m ];
                  bytes;
                  born = Mu.now ();
                  missing = 0;
                  settled = Atomic.make (bytes >= max_group_bytes);
                }
              in
              k.joined <- no;
              Mu.set c.forming (Some g);
              `Lead (g, m)))

  (* With the slot held (every earlier group has returned its callers):
     mark the callers this group awaits and return how many, and until
     when.  Callers not back for a second are forgotten. *)
  let plan c g =
    Mu.with_lock c.mutex (fun () ->
        let now = Mu.now () and log_s = Atomic.get c.log_s in
        let waits = not (Atomic.get g.settled) and until = ref now in
        Hashtbl.filter_map_inplace
          (fun _ k ->
            if k.joined = g.no then Some k
            else if now -. k.returned > 1.0 then None
            else begin
              let due = k.returned +. log_s in
              if waits && k.gap <= log_s && due > now then begin
                k.awaited <- g.no;
                g.missing <- g.missing + 1;
                until := Float.max !until due
              end;
              Some k
            end)
          (Mu.get c.callers);
        if g.missing = 0 then Atomic.set g.settled true;
        (g.missing, Float.min !until (g.born +. max_group_delay)))

  (* The poll takes no mutex and allocates nothing. *)
  let linger g until =
    while (not (Atomic.get g.settled)) && Mu.before until do
      Mu.yield ()
    done

  (* Members join under Update, so once the leader holds Update the
     group is final; late arrivals form the next one.  The leader's
     "update.join" span is its wait for the slot; "update.linger" its
     wait for the callers it awaited. *)
  let lead c engine ctx g leader =
    let traced = Trace.active () in
    let t0 = if traced then Mu.now () else 0.0 in
    claim_slot c;
    Fun.protect ~finally:(fun () -> release_slot c leader.caller) @@ fun () ->
    if traced then join_span c ~role:"leader" t0;
    let awaited, until = plan c g in
    if awaited > 0 then begin
      let t1 = Mu.now () in
      linger g until;
      let d = Mu.now () -. t1 in
      Sdb_obs.Metrics.observe m_linger d;
      if Trace.active () then begin
        let joined = Mu.with_lock c.mutex (fun () -> awaited - g.missing) in
        Trace.span "update.linger" ~start_s:t1 ~dur_s:d
          ~attrs:
            [
              ("app", c.name);
              ("waited_for", string_of_int awaited);
              ("joined", string_of_int joined);
            ]
      end
    end;
    run c engine ctx (fun () ->
        Mu.with_lock c.mutex (fun () ->
            Mu.set c.forming None;
            List.rev g.members))
  [@@sdb.acquires exclusive]

  let park c m =
    let traced = Trace.active () in
    let t0 = if traced then Mu.now () else 0.0 in
    Mu.lock c.mutex;
    while is_pending m do
      Mu.wait c.cond c.mutex
    done;
    let o = m.outcome in
    Mu.unlock c.mutex;
    if traced then join_span c ~role:"member" t0;
    o

  let commit c engine ctx prepare =
    let o =
      if not c.grouped then
        run c engine ctx (fun () ->
            [ { payload = prepare (); caller = fresh_caller 0.0; outcome = Pending } ])
      else
        match join c engine ~entered:(Mu.now ()) prepare with
        | `Lead (g, m) -> lead c engine ctx g m
        | `Member m -> park c m
    in
    match o with
    | Committed -> `Committed
    | Refused -> `Refused
    | Failed e -> raise e
    | Pending -> assert false
  [@@sdb.acquires exclusive]
end
