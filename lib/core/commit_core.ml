(* The commit pipeline (DESIGN.md §4d), functored over its mutex and
   lock as Vlock_core is: the engine runs [Make (Thread_mu) (Vlock)],
   and Sdb_schedcheck exhausts the same code over virtual primitives.
   The parameters are named after the modules they stand for, so
   sdb_modecheck recognizes the coordinator's acquisitions.

   Without group commit every update is a group of one its caller
   seals: take Update, verify and pickle, log, upgrade, apply — one
   hold, the paper's protocol.  With it, an unconditional update
   verifies and pickles under Update and joins the forming group, whose
   first member leads it: claim the commit slot, linger for joiners,
   then commit the sealed group the same way, with one log write and
   one fsync for all of its members.  A checked update never joins: it
   claims the slot before taking Update, so every earlier group is
   applied when its precondition runs. *)

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
  val now : unit -> float  (* seconds; bounds the linger *)
  val yield : unit -> unit  (* one poll of the linger *)
end

module type VLOCK = sig
  type t

  val acquire : t -> Vlock_core.mode -> unit
  val release : t -> Vlock_core.mode -> unit
  val upgrade : t -> unit
  val waiting : t -> Vlock_core.waiting
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
  let yield = Thread.yield
end

(* The longest a leader lingers for joiners (lingering longer than one
   fsync is never a win), and the group size that ends the linger. *)
let max_group_delay = 0.002
let max_group_bytes = 1 lsl 20

(* The engine's steps, called with the engine instance ['c] and the
   sealed members' payloads in stage order.  [log] runs under Update and
   is the commit point of every member; [apply] runs under Exclusive;
   [notify] runs with no lock held (but the slot, when one is claimed,
   so groups notify in LSN order).  [log] and [apply] raise on failure, having decided
   whether it poisons; the other members of the group then raise
   [member_failure ctx e]. *)
type ('c, 'm) engine = {
  size : 'm -> int;  (* framed log bytes of one member *)
  log : 'c -> 'm list -> unit;
  apply : 'c -> 'm list -> unit;
  notify : 'c -> 'm list -> unit;
  member_failure : 'c -> exn -> exn;
}

module Make (Mu : MU) (Vlock : VLOCK) : sig
  type 'm t

  val create : name:string -> grouped:bool -> Vlock.t -> 'm t

  val commit :
    'm t -> ('c, 'm) engine -> 'c -> checked:bool -> (unit -> ('m, 'e) result) ->
    (unit, 'e) result
  (** [commit c engine ctx ~checked prepare] commits one member.
      [prepare] runs under Update — after every earlier commit when
      [checked] or not [grouped] — and verifies and pickles; its
      [Error] or exception leaves nothing committed.  Returns once the
      member is durable and applied; raises its group's failure
      otherwise. *)

  val idle : 'm t -> bool
  (** No group forming and the slot free.  Reads without the mutex: for
      schedule-exploration finales only. *)
end = struct
  type outcome = Pending | Committed | Failed of exn
  type 'm member = { payload : 'm; mutable outcome : outcome }

  type 'm group = {
    mutable members : 'm member list;  (* reverse join order *)
    mutable bytes : int;
    born : float;
  }

  (* The forming group, the commit slot — a ticket lock, so commits hold
     it in claim order and a stream of groups cannot starve a checked
     update — and the condition variable slot claimants and members park
     on, all guarded by [mutex]. *)
  type 'm t = {
    name : string;
    grouped : bool;
    lock : Vlock.t;
    mutex : Mu.t;
    cond : Mu.cond;
    forming : 'm group option Mu.cell;
    next_ticket : int Mu.cell;
    serving : int Mu.cell;  (* the ticket holding the slot *)
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
      next_ticket = Mu.cell ~by:mutex ~name:"gc_next_ticket" 0;
      serving = Mu.cell ~by:mutex ~name:"gc_serving" 0;
    }

  let idle c = Mu.get c.forming = None && Mu.get c.serving = Mu.get c.next_ticket
  let is_pending m = match m.outcome with Pending -> true | _ -> false

  let join_span c ~role t0 =
    Trace.span "update.join"
      ~attrs:[ ("app", c.name); ("role", role) ]
      ~start_s:t0 ~dur_s:(Mu.now () -. t0)

  let claim_slot c =
    Mu.lock c.mutex;
    let ticket = Mu.get c.next_ticket in
    Mu.set c.next_ticket (ticket + 1);
    while Mu.get c.serving <> ticket do
      Mu.wait c.cond c.mutex
    done;
    Mu.unlock c.mutex

  let release_slot c =
    Mu.with_lock c.mutex (fun () ->
        Mu.set c.serving (Mu.get c.serving + 1);
        Mu.broadcast c.cond)
  [@@sdb.noblock]

  (* Settle every still-pending member, once per commit, after the lock
     is released and before notifying.  The first member is the caller,
     so a group of one has nobody parked. *)
  let wake c members outcome =
    match members with
    | [] | [ _ ] -> ()
    | _ ->
      Mu.with_lock c.mutex (fun () ->
          List.iter (fun m -> if is_pending m then m.outcome <- outcome) members;
          Mu.broadcast c.cond)
  [@@sdb.noblock]

  (* Commit a group under one continuous hold: Update from [seal] (which
     names the members, or refuses) through the log write, Exclusive
     for the apply.  Any failure releases the lock, settles every member
     and re-raises to the caller. *)
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
            engine.log ctx payloads;
            Vlock.upgrade c.lock;
            held := Vlock_core.Exclusive;
            engine.apply ctx payloads;
            Ok payloads)
    with
    | Error e -> Error e
    | Ok payloads ->
      wake c !members Committed;
      engine.notify ctx payloads;
      Ok ()
    | exception e ->
      wake c !members (Failed (engine.member_failure ctx e));
      raise e
  [@@sdb.acquires exclusive]

  (* Verify and pickle under Update, then join the forming group, or
     create it and lead it. *)
  let join c engine prepare =
    Vlock.acquire c.lock Vlock_core.Update;
    Fun.protect
      ~finally:(fun () -> Vlock.release c.lock Vlock_core.Update)
      (fun () ->
        match prepare () with
        | Error e -> Error e
        | Ok payload ->
          let m = { payload; outcome = Pending } in
          let bytes = engine.size payload in
          Mu.with_lock c.mutex (fun () ->
              match Mu.get c.forming with
              | Some g ->
                g.members <- m :: g.members;
                g.bytes <- g.bytes + bytes;
                Ok (`Member m)
              | None ->
                let g = { members = [ m ]; bytes; born = Mu.now () } in
                Mu.set c.forming (Some g);
                Ok (`Lead g)))

  (* Linger while updaters are queued on the Update lock — each will
     join within its next quantum — for at most [max_group_delay].  The
     stdlib has no timed condition wait, so poll; an idle lock exits at
     once. *)
  let linger c g =
    let group_bytes () = Mu.with_lock c.mutex (fun () -> g.bytes) in
    while
      Mu.now () < g.born +. max_group_delay
      && group_bytes () < max_group_bytes
      && (Vlock.waiting c.lock).Vlock_core.waiting_update > 0
    do
      Mu.yield ()
    done

  (* Members join under Update, so once the leader holds Update the
     group is final; late arrivals form the next one. *)
  let lead c engine ctx g =
    let traced = Trace.active () in
    let t0 = if traced then Mu.now () else 0.0 in
    claim_slot c;
    Fun.protect ~finally:(fun () -> release_slot c) @@ fun () ->
    linger c g;
    if traced then join_span c ~role:"leader" t0;
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
          | Ok payload -> Ok [ { payload; outcome = Pending } ])
    in
    if not c.grouped then alone ()
    else if checked then begin
      claim_slot c;
      Fun.protect ~finally:(fun () -> release_slot c) alone
    end
    else
      match join c engine prepare with
      | Error e -> Error e
      | Ok (`Lead g) -> lead c engine ctx g
      | Ok (`Member m) ->
        park c m;
        Ok ()
  [@@sdb.acquires exclusive]
end
