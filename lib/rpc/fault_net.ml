module Rng = Sdb_util.Rng
module Metrics = Sdb_obs.Metrics

type op = [ `Send | `Recv ]

type scheduled = { s_op : op; mutable s_from : int; mutable s_until : int }
(* Operations with 1-based index in [s_from, s_until] fail. *)

type t = {
  m : Sdb_check.Mu.t;
  rng : Rng.t;
  mutable scheduled : scheduled list;
  mutable send_rate : float;
  mutable recv_rate : float;
  mutable drop_rate : float;
  mutable dup_rate : float;
  mutable reorder_rate : float;
  mutable delay_s : float;
  mutable delay_jitter_s : float;
  partitions : (string, unit) Hashtbl.t;
  mutable n_send : int;
  mutable n_recv : int;
  n_injected : int Atomic.t;
}

let m_injected =
  Metrics.counter "sdb_fault_net_injected_total"
    ~help:"Network faults injected by the fault_net decorator."

let create ?seed () =
  {
    m = Sdb_check.Mu.make "fault_net";
    rng = Rng.create ~seed:(Option.value seed ~default:0);
    scheduled = [];
    send_rate = 0.0;
    recv_rate = 0.0;
    drop_rate = 0.0;
    dup_rate = 0.0;
    reorder_rate = 0.0;
    delay_s = 0.0;
    delay_jitter_s = 0.0;
    partitions = Hashtbl.create 4;
    n_send = 0;
    n_recv = 0;
    n_injected = Atomic.make 0;
  }

let locked t f = Sdb_check.Mu.with_lock t.m f

let inject t =
  ignore (Atomic.fetch_and_add t.n_injected 1 : int);
  Metrics.incr m_injected

let fail_nth t ~op ~n ?(count = 1) () =
  if n < 1 then invalid_arg "Fault_net.fail_nth: n < 1";
  if count < 1 then invalid_arg "Fault_net.fail_nth: count < 1";
  locked t (fun () ->
      let seen = match op with `Send -> t.n_send | `Recv -> t.n_recv in
      t.scheduled <-
        { s_op = op; s_from = seen + n; s_until = seen + n + count - 1 }
        :: t.scheduled)

let check_rate what r =
  if r < 0.0 || r > 1.0 then
    invalid_arg (Printf.sprintf "Fault_net.%s: rate out of [0,1]" what)

let set_fault_rate t ~op r =
  check_rate "set_fault_rate" r;
  locked t (fun () ->
      match op with `Send -> t.send_rate <- r | `Recv -> t.recv_rate <- r)

let set_drop_rate t r =
  check_rate "set_drop_rate" r;
  locked t (fun () -> t.drop_rate <- r)

let set_dup_rate t r =
  check_rate "set_dup_rate" r;
  locked t (fun () -> t.dup_rate <- r)

let set_reorder_rate t r =
  check_rate "set_reorder_rate" r;
  locked t (fun () -> t.reorder_rate <- r)

let set_delay t ?(jitter_s = 0.0) d =
  if d < 0.0 || jitter_s < 0.0 then invalid_arg "Fault_net.set_delay: negative";
  locked t (fun () ->
      t.delay_s <- d;
      t.delay_jitter_s <- jitter_s)

let partition t peer = locked t (fun () -> Hashtbl.replace t.partitions peer ())
let heal t peer = locked t (fun () -> Hashtbl.remove t.partitions peer)
let partitioned t peer = locked t (fun () -> Hashtbl.mem t.partitions peer)

let ops t ~op =
  locked t (fun () -> match op with `Send -> t.n_send | `Recv -> t.n_recv)

let injected t = Atomic.get t.n_injected

let clear t =
  locked t (fun () ->
      t.scheduled <- [];
      t.send_rate <- 0.0;
      t.recv_rate <- 0.0;
      t.drop_rate <- 0.0;
      t.dup_rate <- 0.0;
      t.reorder_rate <- 0.0;
      t.delay_s <- 0.0;
      t.delay_jitter_s <- 0.0;
      Hashtbl.reset t.partitions)

(* ------------------------------------------------------------------ *)
(* The decorated transport                                             *)

(* The per-message decision, taken under the controller mutex so the
   seeded stream is consumed deterministically, then acted on outside
   it (sleeps and the underlying I/O must not hold the lock). *)
type verdict = {
  v_reset : bool;
  v_blackholed : bool;
  v_drop : bool;
  v_dup : bool;
  v_reorder : bool;
  v_sleep_s : float;
}

let pass =
  {
    v_reset = false;
    v_blackholed = false;
    v_drop = false;
    v_dup = false;
    v_reorder = false;
    v_sleep_s = 0.0;
  }

let decide t ~op ~peer =
  locked t (fun () ->
      let n =
        match op with
        | `Send ->
          t.n_send <- t.n_send + 1;
          t.n_send
        | `Recv ->
          t.n_recv <- t.n_recv + 1;
          t.n_recv
      in
      let scheduled_hit =
        List.exists
          (fun s -> s.s_op = op && n >= s.s_from && n <= s.s_until)
          t.scheduled
      in
      let rate = match op with `Send -> t.send_rate | `Recv -> t.recv_rate in
      let chance r = r > 0.0 && Rng.float t.rng 1.0 < r in
      if scheduled_hit || chance rate then { pass with v_reset = true }
      else if
        (match peer with
        | Some p -> Hashtbl.mem t.partitions p
        | None -> false)
      then { pass with v_blackholed = true }
      else if op = `Recv then pass
      else
        let sleep =
          if t.delay_s > 0.0 || t.delay_jitter_s > 0.0 then
            t.delay_s
            +.
            if t.delay_jitter_s > 0.0 then Rng.float t.rng t.delay_jitter_s
            else 0.0
          else 0.0
        in
        {
          pass with
          v_drop = chance t.drop_rate;
          v_dup = chance t.dup_rate;
          v_reorder = chance t.reorder_rate;
          v_sleep_s = sleep;
        })

let reset_message = "injected: connection reset"

let wrap t ?peer (inner : Rpc.Transport.t) =
  let dead = ref false in
  (* One held-back message per transport: [set] by a reorder verdict,
     flushed (after the overtaking message) by the next send, dropped
     at close. *)
  let held = ref None in
  let die () =
    if not !dead then begin
      dead := true;
      (try inner.Rpc.Transport.close () with Rpc.Rpc_error _ -> ())
    end;
    raise (Rpc.Rpc_error reset_message)
  in
  let guard () = if !dead then raise (Rpc.Rpc_error reset_message) in
  let send msg =
    guard ();
    let v = decide t ~op:`Send ~peer in
    if v.v_sleep_s > 0.0 then Thread.delay v.v_sleep_s;
    if v.v_reset then begin
      inject t;
      die ()
    end
    else if v.v_blackholed || v.v_drop then inject t (* vanishes *)
    else begin
      (* Reordering: park this message and send nothing now; any
         previously parked message is released after the current one,
         i.e. out of order. *)
      let release = !held in
      held := None;
      if v.v_reorder then begin
        inject t;
        held := Some msg;
        match release with
        | Some old -> inner.Rpc.Transport.send old
        | None -> ()
      end
      else begin
        inner.Rpc.Transport.send msg;
        if v.v_dup then begin
          inject t;
          inner.Rpc.Transport.send msg
        end;
        match release with
        | Some old -> inner.Rpc.Transport.send old
        | None -> ()
      end
    end
  in
  let rec recv () =
    guard ();
    let v = decide t ~op:`Recv ~peer in
    if v.v_reset then begin
      inject t;
      die ()
    end
    else
      let msg = inner.Rpc.Transport.recv () in
      (* A blackhole swallows receipts too: anything that arrives while
         the peer is partitioned is discarded and the wait continues,
         so the caller times out exactly as over a real partition. *)
      match peer with
      | Some p when partitioned t p ->
        inject t;
        recv ()
      | _ -> msg
  in
  {
    Rpc.Transport.descr = Printf.sprintf "fault_net(%s)" inner.Rpc.Transport.descr;
    send;
    recv;
    close =
      (fun () ->
        dead := true;
        held := None;
        inner.Rpc.Transport.close ());
    set_recv_timeout = inner.Rpc.Transport.set_recv_timeout;
  }
