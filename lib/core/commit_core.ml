(* The commit pipeline (DESIGN.md §4d), functored over its mutex and
   lock as Vlock_core is: the engine runs [Make (Thread_mu) (Vlock)],
   and Sdb_schedcheck exhausts the same code over virtual primitives.
   The parameters are named after the modules they stand for, so
   sdb_modecheck recognizes the coordinator's acquisitions.

   Without group commit every update is a group of one its caller
   seals: take Update, verify and pickle, fold, log, upgrade, publish —
   one hold, the paper's protocol.  With it, an unconditional update
   verifies and pickles under Update and joins the forming group, whose
   first member leads it: claim the commit slot, linger for the callers
   expected back, then commit the sealed group the same way, with one
   log write and one fsync for all of its members.  A checked update
   never joins: it claims the slot before taking Update, so every
   earlier group is published when its precondition runs.

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
   formed; it ends at once when every awaited caller has joined, the
   group is full, or a checked update queues on the slot.  A caller with
   no measured gap, or a longer one, is never awaited, so a lone updater
   never lingers. *)

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

(* The engine's steps, called with the engine instance ['c] and the
   sealed members' payloads in stage order.  Under Update, [fold]
   computes the group's next version ['v] and [log] is the commit point
   of every member; under Exclusive, [publish] makes the version
   current; [notify] gets the published version and runs with no lock
   held (but the slot, when one is claimed, so groups notify in LSN
   order).  [fold] and [log] raise on failure, having decided whether
   it poisons (a fold never does: nothing is staged yet); the other
   members then raise [member_failure ctx e]. *)
type ('c, 'm, 'v) engine = {
  size : 'm -> int;  (* framed log bytes of one member *)
  fold : 'c -> 'm list -> 'v;
  log : 'c -> 'm list -> unit;
  publish : 'c -> 'v -> unit;
  notify : 'c -> 'm list -> 'v -> unit;
  member_failure : 'c -> exn -> exn;
}

module Make (Mu : MU) (Vlock : VLOCK) : sig
  type 'm t

  val create : name:string -> grouped:bool -> Vlock.t -> 'm t

  val commit :
    'm t -> ('c, 'm, 'v) engine -> 'c -> checked:bool -> (unit -> ('m, 'e) result) ->
    (unit, 'e) result
  (** [commit c engine ctx ~checked prepare] commits one member.
      [prepare] runs under Update — after every earlier commit when
      [checked] or not [grouped] — and verifies and pickles; its
      [Error] or exception leaves nothing committed.  Returns once the
      member is durable and published; raises its group's failure
      otherwise. *)

  val idle : 'm t -> bool
  (** No group forming and the slot free.  Reads without the mutex: for
      schedule-exploration finales only. *)
end = struct
  type outcome = Pending | Committed | Failed of exn

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

  (* The forming group, the commit slot — a ticket lock, so commits hold
     it in claim order and a stream of groups cannot starve a checked
     update — the condition variable slot claimants and members park
     on, and the callers, all guarded by [mutex].  [log_s] is the last
     group's log write and fsync, set under Update. *)
  type 'm t = {
    name : string;
    grouped : bool;
    lock : Vlock.t;
    mutex : Mu.t;
    cond : Mu.cond;
    forming : 'm group option Mu.cell;
    formed : int Mu.cell;  (* groups formed, numbering them *)
    next_ticket : int Mu.cell;
    serving : int Mu.cell;  (* the ticket holding the slot *)
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
      next_ticket = Mu.cell ~by:mutex ~name:"gc_next_ticket" 0;
      serving = Mu.cell ~by:mutex ~name:"gc_serving" 0;
      callers = Mu.cell ~by:mutex ~name:"gc_callers" (Hashtbl.create 8);
      log_s = Atomic.make 0.0;
    }

  let idle c = Mu.get c.forming = None && Mu.get c.serving = Mu.get c.next_ticket
  let is_pending m = match m.outcome with Pending -> true | _ -> false

  let join_span c ~role t0 =
    Trace.span "update.join"
      ~attrs:[ ("app", c.name); ("role", role) ]
      ~start_s:t0 ~dur_s:(Mu.now () -. t0)

  (* A checked claimant [cuts] the forming group's linger short: it
     would otherwise wait behind callers that are not yet back. *)
  let claim_slot ?(cuts = false) c =
    Mu.lock c.mutex;
    let ticket = Mu.get c.next_ticket in
    Mu.set c.next_ticket (ticket + 1);
    if cuts then Option.iter (fun g -> Atomic.set g.settled true) (Mu.get c.forming);
    while Mu.get c.serving <> ticket do
      Mu.wait c.cond c.mutex
    done;
    Mu.unlock c.mutex

  (* A leader's commit returns when it gives up the slot. *)
  let release_slot ?leader c =
    Mu.with_lock c.mutex (fun () ->
        Option.iter (fun k -> k.returned <- Mu.now ()) leader;
        Mu.set c.serving (Mu.get c.serving + 1);
        Mu.broadcast c.cond)
  [@@sdb.noblock]

  (* Settle every still-pending member, once per commit, after the lock
     is released and before notifying; their commits return now.  The
     first member is the caller, so a group of one has nobody parked. *)
  let wake c members outcome =
    match members with
    | [] | [ _ ] -> ()
    | _ ->
      Mu.with_lock c.mutex (fun () ->
          let now = Mu.now () in
          List.iter
            (fun m ->
              if is_pending m then begin
                m.outcome <- outcome;
                m.caller.returned <- now
              end)
            members;
          Mu.broadcast c.cond)
  [@@sdb.noblock]

  (* Commit a group under one continuous hold: Update from [seal] (which
     names the members, or refuses) through the fold — at the seal, not
     at join, so it includes a checked update committed in between — and
     the log write, Exclusive for the publish.  Any failure releases the
     lock, settles every member and re-raises to the caller. *)
  let run c engine ctx seal =
    Vlock.acquire c.lock Vlock_core.Update;
    let held = ref Vlock_core.Update in
    let members = ref [] in
    match
      Fun.protect
        ~finally:(fun () -> Vlock.release c.lock !held)
        (fun () ->
          match seal () with
          | Error e -> Error e
          | Ok sealed ->
            members := sealed;
            let payloads = List.map (fun m -> m.payload) sealed in
            let next = engine.fold ctx payloads in
            let t0 = Mu.now () in
            engine.log ctx payloads;
            Atomic.set c.log_s (Mu.now () -. t0);
            Vlock.upgrade c.lock;
            held := Vlock_core.Exclusive;
            engine.publish ctx next;
            Ok (payloads, next))
    with
    | Error e -> Error e
    | Ok (payloads, next) ->
      wake c !members Committed;
      engine.notify ctx payloads next;
      Ok ()
    | exception e ->
      wake c !members (Failed (engine.member_failure ctx e));
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

  (* Verify and pickle under Update, then join the forming group, or
     create it and lead it.  A joiner the leader awaits counts itself
     in. *)
  let join c engine ~entered prepare =
    Vlock.acquire c.lock Vlock_core.Update;
    Fun.protect
      ~finally:(fun () -> Vlock.release c.lock Vlock_core.Update)
      (fun () ->
        match prepare () with
        | Error e -> Error e
        | Ok payload ->
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
                Ok (`Member m)
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
                Ok (`Lead (g, k))))

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
    Fun.protect ~finally:(fun () -> release_slot ~leader c) @@ fun () ->
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
            Ok (List.rev g.members)))
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
    match o with Failed e -> raise e | Pending | Committed -> ()

  let commit c engine ctx ~checked prepare =
    let alone () =
      run c engine ctx (fun () ->
          match prepare () with
          | Error e -> Error e
          | Ok payload ->
            Ok [ { payload; caller = fresh_caller 0.0; outcome = Pending } ])
    in
    if not c.grouped then alone ()
    else if checked then begin
      claim_slot ~cuts:true c;
      Fun.protect ~finally:(fun () -> release_slot c) alone
    end
    else
      match join c engine ~entered:(Mu.now ()) prepare with
      | Error e -> Error e
      | Ok (`Lead (g, leader)) -> lead c engine ctx g leader
      | Ok (`Member m) ->
        park c m;
        Ok ()
  [@@sdb.acquires exclusive]
end
