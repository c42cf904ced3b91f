(* The three-mode lock protocol, functored over its synchronization
   primitives so the schedule-exploration harness (lib/schedcheck) can
   run the exact engine algorithm under a virtual scheduler.  No
   metrics, no sanitizer here: Vlock layers those onto the Thread_sync
   instantiation. *)

module type SYNC = sig
  type mutex
  type cond

  val make_mutex : unit -> mutex
  val make_cond : unit -> cond
  val lock : mutex -> unit
  val unlock : mutex -> unit
  val wait : cond -> mutex -> unit
  val broadcast : cond -> unit
  val self : unit -> int
end

type mode = Shared | Update | Exclusive

type stats = {
  shared_acquisitions : int;
  update_acquisitions : int;
  exclusive_acquisitions : int;
  upgrades : int;
}

type inspection = {
  i_readers : int;
  i_update : bool;
  i_exclusive : bool;
  i_upgrade_pending : bool;
  i_hold_sum : int;
}

module type S = sig
  type t

  val create : unit -> t
  val acquire : t -> mode -> unit
  val release : t -> mode -> unit
  val upgrade : t -> unit
  val downgrade : t -> unit
  val readers : t -> int
  val shared_hold_count : t -> int
  val update_held : t -> bool
  val exclusive_held : t -> bool
  val upgrade_pending : t -> bool
  val waiters : t -> mode -> int
  val stats : t -> stats
  val inspect : t -> inspection
end

module Make (Sync : SYNC) = struct
  type t = {
    mutex : Sync.mutex;
    changed : Sync.cond;
    (* Reader ownership: thread id -> number of Shared holds.  The sum
       of all counts always equals [n_readers]; entries are removed at
       zero so dead threads do not accumulate. *)
    readers_by : (int, int) Hashtbl.t;
    mutable n_readers : int;
    mutable upd : bool;
    mutable excl : bool;
    mutable upgrade_pending : bool;
    mutable s_shared : int;
    mutable s_update : int;
    mutable s_exclusive : int;
    mutable s_upgrades : int;
    (* threads currently blocked inside acquire, per requested mode *)
    mutable w_shared : int;
    mutable w_update : int;
    mutable w_exclusive : int;
  }

  let create () =
    {
      mutex = Sync.make_mutex ();
      changed = Sync.make_cond ();
      readers_by = Hashtbl.create 8;
      n_readers = 0;
      upd = false;
      excl = false;
      upgrade_pending = false;
      s_shared = 0;
      s_update = 0;
      s_exclusive = 0;
      s_upgrades = 0;
      w_shared = 0;
      w_update = 0;
      w_exclusive = 0;
    }

  let locked t f =
    Sync.lock t.mutex;
    Fun.protect ~finally:(fun () -> Sync.unlock t.mutex) f

  let add_hold t tid =
    match Hashtbl.find_opt t.readers_by tid with
    | Some n -> Hashtbl.replace t.readers_by tid (n + 1)
    | None -> Hashtbl.add t.readers_by tid 1

  (* false: the thread has no registered Shared hold *)
  let drop_hold t tid =
    match Hashtbl.find_opt t.readers_by tid with
    | Some 1 ->
      Hashtbl.remove t.readers_by tid;
      true
    | Some n ->
      Hashtbl.replace t.readers_by tid (n - 1);
      true
    | None -> false

  let acquire t mode =
    let tid = Sync.self () in
    locked t (fun () ->
        match mode with
        | Shared ->
          (* A thread that already holds Shared re-enters without
             parking: it cannot wait behind [excl] (a reader in the
             registry excludes an exclusive holder) and it must not
             wait behind [upgrade_pending] — the upgrader is draining
             readers, so parking this one deadlocks both.  First-time
             readers still queue behind a pending upgrade, which is
             what keeps the upgrader from being starved. *)
          let nested = Hashtbl.mem t.readers_by tid in
          if not nested then begin
            t.w_shared <- t.w_shared + 1;
            (try
               while t.excl || t.upgrade_pending do
                 Sync.wait t.changed t.mutex
               done;
               t.w_shared <- t.w_shared - 1
             with e ->
               t.w_shared <- t.w_shared - 1;
               raise e)
          end;
          t.n_readers <- t.n_readers + 1;
          add_hold t tid;
          t.s_shared <- t.s_shared + 1
        | Update ->
          t.w_update <- t.w_update + 1;
          (try
             while t.upd || t.excl do
               Sync.wait t.changed t.mutex
             done;
             t.w_update <- t.w_update - 1
           with e ->
             t.w_update <- t.w_update - 1;
             raise e);
          t.upd <- true;
          t.s_update <- t.s_update + 1
        | Exclusive ->
          (* Serialize against other writers first, then drain readers,
             exactly as an update that upgrades immediately.  An
             exception mid-protocol (an async interrupt during a wait)
             must unwind whatever flags this thread had already raised,
             or the lock is wedged for everyone. *)
          t.w_exclusive <- t.w_exclusive + 1;
          (try
             while t.upd || t.excl do
               Sync.wait t.changed t.mutex
             done
           with e ->
             t.w_exclusive <- t.w_exclusive - 1;
             raise e);
          t.upd <- true;
          t.upgrade_pending <- true;
          (try
             while t.n_readers > 0 do
               Sync.wait t.changed t.mutex
             done
           with e ->
             t.upd <- false;
             t.upgrade_pending <- false;
             t.w_exclusive <- t.w_exclusive - 1;
             Sync.broadcast t.changed;
             raise e);
          t.w_exclusive <- t.w_exclusive - 1;
          t.upd <- false;
          t.upgrade_pending <- false;
          t.excl <- true;
          t.s_exclusive <- t.s_exclusive + 1)

  let release t mode =
    let tid = Sync.self () in
    locked t (fun () ->
        (match mode with
        | Shared ->
          if t.n_readers <= 0 then invalid_arg "Vlock.release: no shared holder";
          if not (drop_hold t tid) then
            invalid_arg "Vlock.release: calling thread holds no shared lock";
          t.n_readers <- t.n_readers - 1
        | Update ->
          if not t.upd then invalid_arg "Vlock.release: update not held";
          t.upd <- false
        | Exclusive ->
          if not t.excl then invalid_arg "Vlock.release: exclusive not held";
          t.excl <- false);
        Sync.broadcast t.changed)

  let upgrade t =
    locked t (fun () ->
        if not t.upd then invalid_arg "Vlock.upgrade: update not held";
        if t.upgrade_pending then
          invalid_arg "Vlock.upgrade: upgrade already pending";
        t.upgrade_pending <- true;
        (try
           while t.n_readers > 0 do
             Sync.wait t.changed t.mutex
           done
         with e ->
           (* Still holding Update; new readers were gated for nothing,
              so wake them as we withdraw the pending upgrade. *)
           t.upgrade_pending <- false;
           Sync.broadcast t.changed;
           raise e);
        t.upd <- false;
        t.upgrade_pending <- false;
        t.excl <- true;
        t.s_upgrades <- t.s_upgrades + 1)

  let downgrade t =
    locked t (fun () ->
        if not t.excl then invalid_arg "Vlock.downgrade: exclusive not held";
        t.excl <- false;
        t.upd <- true;
        Sync.broadcast t.changed)

  let readers t = locked t (fun () -> t.n_readers)

  let shared_hold_count t =
    let tid = Sync.self () in
    locked t (fun () ->
        match Hashtbl.find_opt t.readers_by tid with Some n -> n | None -> 0)

  let update_held t = locked t (fun () -> t.upd)
  let exclusive_held t = locked t (fun () -> t.excl)
  let upgrade_pending t = locked t (fun () -> t.upgrade_pending)

  let waiters t mode =
    locked t (fun () ->
        match mode with
        | Shared -> t.w_shared
        | Update -> t.w_update
        | Exclusive -> t.w_exclusive)

  let stats t =
    locked t (fun () ->
        {
          shared_acquisitions = t.s_shared;
          update_acquisitions = t.s_update;
          exclusive_acquisitions = t.s_exclusive;
          upgrades = t.s_upgrades;
        })

  let inspect t =
    {
      i_readers = t.n_readers;
      i_update = t.upd;
      i_exclusive = t.excl;
      i_upgrade_pending = t.upgrade_pending;
      i_hold_sum = Hashtbl.fold (fun _ n acc -> acc + n) t.readers_by 0;
    }
end

module Thread_sync = struct
  type mutex = Mutex.t
  type cond = Condition.t

  let make_mutex () = Mutex.create ()
  let make_cond () = Condition.create ()
  let lock = Mutex.lock
  let unlock = Mutex.unlock
  let wait = Condition.wait
  let broadcast = Condition.broadcast
  let self () = Thread.id (Thread.self ())
end
