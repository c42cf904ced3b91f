module P = Sdb_pickle.Pickle
module Metrics = Sdb_obs.Metrics
module Trace = Sdb_obs.Trace

exception Rpc_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Rpc_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Wire messages                                                       *)

type request = { req_id : int; meth : string; args : string }

let codec_request =
  P.record3 "rpc.request"
    (P.field "id" P.int (fun r -> r.req_id))
    (P.field "meth" P.string (fun r -> r.meth))
    (P.field "args" P.string (fun r -> r.args))
    (fun req_id meth args -> { req_id; meth; args })

type response = { resp_id : int; payload : (string, string) result }

let codec_response =
  P.record2 "rpc.response"
    (P.field "id" P.int (fun r -> r.resp_id))
    (P.field "payload" (P.result P.string P.string) (fun r -> r.payload))
    (fun resp_id payload -> { resp_id; payload })

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)

module Transport = struct
  type t = {
    descr : string;
    send : string -> unit;
    recv : unit -> string;
    close : unit -> unit;
    set_recv_timeout : float option -> unit;
  }

  let trips = Atomic.make 0
  let round_trips () = Atomic.get trips
  let count_trip () = ignore (Atomic.fetch_and_add trips 1 : int)

  let deadline_exceeded = "recv deadline exceeded"
end

module Bqueue = struct
  type 'a t = {
    q : 'a Queue.t;
    m : Sdb_check.Mu.t;
    c : Condition.t;
    mutable closed : bool;
  }

  let create () =
    {
      q = Queue.create ();
      m = Sdb_check.Mu.make "rpc.bqueue";
      c = Condition.create ();
      closed = false;
    }

  let push t v =
    Sdb_check.Mu.lock t.m;
    if t.closed then begin
      Sdb_check.Mu.unlock t.m;
      err "transport closed"
    end;
    Queue.push v t.q;
    Condition.signal t.c;
    Sdb_check.Mu.unlock t.m

  let pop ?timeout_s t =
    match timeout_s with
    | None ->
      Sdb_check.Mu.lock t.m;
      let rec wait () =
        if not (Queue.is_empty t.q) then Queue.pop t.q
        else if t.closed then begin
          Sdb_check.Mu.unlock t.m;
          err "transport closed"
        end
        else begin
          Sdb_check.Mu.wait t.c t.m;
          wait ()
        end
      in
      let v = wait () in
      Sdb_check.Mu.unlock t.m;
      v
    | Some dt ->
      (* OCaml's [Condition] has no timed wait; a fine-grained poll is
         adequate for the in-process transport's deadline support.  The
         deadline is monotonic: an NTP step must not expire it early or
         extend it (satellite of ISSUE 8). *)
      let deadline = Sdb_util.Mono.now_s () +. dt in
      let rec wait () =
        Sdb_check.Mu.lock t.m;
        if not (Queue.is_empty t.q) then begin
          let v = Queue.pop t.q in
          Sdb_check.Mu.unlock t.m;
          v
        end
        else if t.closed then begin
          Sdb_check.Mu.unlock t.m;
          err "transport closed"
        end
        else begin
          Sdb_check.Mu.unlock t.m;
          if Sdb_util.Mono.now_s () >= deadline then
            err "%s" Transport.deadline_exceeded
          else begin
            Thread.delay 0.0005;
            wait ()
          end
        end
      in
      wait ()

  let close t =
    Sdb_check.Mu.lock t.m;
    t.closed <- true;
    Condition.broadcast t.c;
    Sdb_check.Mu.unlock t.m
end

module Inproc = struct
  let pair ?(delay_s = 0.0) () =
    let a_to_b = Bqueue.create () and b_to_a = Bqueue.create () in
    let mk descr out inp =
      let timeout = ref None in
      {
        Transport.descr;
        send =
          (fun msg ->
            if delay_s > 0.0 then Thread.delay delay_s;
            Bqueue.push out msg);
        recv = (fun () -> Bqueue.pop ?timeout_s:!timeout inp);
        close =
          (fun () ->
            Bqueue.close out;
            Bqueue.close inp);
        set_recv_timeout = (fun v -> timeout := v);
      }
    in
    (mk "inproc:client" a_to_b b_to_a, mk "inproc:server" b_to_a a_to_b)
end

module Socket = struct
  type listener = {
    fd : Unix.file_descr;
    path : string;
    mutable stopping : bool;
    accept_thread : Thread.t option ref;
  }

  let read_exact fd n =
    let buf = Bytes.create n in
    let rec go got =
      if got = n then buf
      else
        match Unix.read fd buf got (n - got) with
        | 0 -> err "connection closed"
        | k -> go (got + k)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* SO_RCVTIMEO expired with no (complete) data. *)
          err "%s" Transport.deadline_exceeded
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
        | exception Unix.Unix_error (e, _, _) ->
          err "socket read: %s" (Unix.error_message e)
    in
    go 0

  let write_all fd s =
    let n = String.length s in
    let rec go sent =
      if sent < n then
        match Unix.write_substring fd s sent (n - sent) with
        | 0 -> err "socket write returned 0"
        | k -> go (sent + k)
        | exception Unix.Unix_error (e, _, _) ->
          err "socket write: %s" (Unix.error_message e)
    in
    go 0

  let transport_of_fd descr fd =
    let closed = ref false in
    {
      Transport.descr;
      send =
        (fun msg ->
          if !closed then err "transport closed";
          let hdr = Bytes.create 4 in
          Bytes.set_int32_le hdr 0 (Int32.of_int (String.length msg));
          write_all fd (Bytes.unsafe_to_string hdr);
          write_all fd msg);
      recv =
        (fun () ->
          if !closed then err "transport closed";
          let hdr = read_exact fd 4 in
          let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
          if len < 0 || len > 1 lsl 28 then err "implausible frame length %d" len;
          Bytes.unsafe_to_string (read_exact fd len));
      close =
        (fun () ->
          if not !closed then begin
            closed := true;
            try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
          end);
      set_recv_timeout =
        (fun v ->
          if not !closed then
            try
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO
                (match v with Some s when s > 0.0 -> s | _ -> 0.0)
            with Unix.Unix_error (e, _, _) ->
              err "socket set timeout: %s" (Unix.error_message e));
    }

  let listen ~path serve_conn =
    if Sys.file_exists path then
      (Unix.unlink path
      [@sdb.check.allow
        "unix-io: removes a stale unix-domain socket, not a data file; Fs \
         decorates data-path I/O only"]);
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 16;
    let listener = { fd; path; stopping = false; accept_thread = ref None } in
    let accept_loop () =
      let rec go () =
        match Unix.accept fd with
        | conn_fd, _addr ->
          let t = transport_of_fd (Printf.sprintf "unix:%s" path) conn_fd in
          ignore
            (Thread.create
               (fun () ->
                 try serve_conn t
                 with Rpc_error _ -> t.Transport.close ())
               ()
              : Thread.t);
          go ()
        | exception
            Unix.Unix_error
              ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
          ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()
    in
    listener.accept_thread := Some (Thread.create accept_loop ());
    listener

  let connect ~path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with Unix.Unix_error (e, _, _) ->
       (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
       err "connect %s: %s" path (Unix.error_message e));
    transport_of_fd (Printf.sprintf "unix:%s" path) fd

  let shutdown l =
    if not l.stopping then begin
      l.stopping <- true;
      (* shutdown(2) wakes the blocked accept (close alone does not). *)
      (try Unix.shutdown l.fd Unix.SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ());
      (match !(l.accept_thread) with Some t -> Thread.join t | None -> ());
      (try Unix.close l.fd with Unix.Unix_error (_, _, _) -> ());
      try Sys.remove l.path with Sys_error _ -> ()
    end
end

(* ------------------------------------------------------------------ *)
(* Server                                                              *)

module Server = struct
  type handler = { h_meth : string; h_run : string -> (string, string) result }

  (* Per-procedure series.  The label set is bounded by the handler
     list, never by client input: requests for unregistered procedures
     all land on the fixed "_unknown" series. *)
  let m_requests meth =
    Metrics.counter "sdb_rpc_requests_total"
      ~help:"RPC requests served, by procedure." ~labels:[ ("meth", meth) ]

  let m_latency meth =
    Metrics.histogram "sdb_rpc_latency_seconds"
      ~help:"Server-side handler latency, by procedure."
      ~labels:[ ("meth", meth) ]

  let m_errors meth =
    Metrics.counter "sdb_rpc_errors_total"
      ~help:"RPC requests answered with an error, by procedure."
      ~labels:[ ("meth", meth) ]

  (* One extra series merging every procedure, so a dashboard (or
     sdb_top) can read overall latency quantiles without trying to
     merge per-meth quantiles, which is not meaningful. *)
  let m_latency_all () = m_latency "_all"

  (* Server-wide request ids ("meth-N"): unique per process, attached
     to every span emitted while the handler runs (see
     Trace.with_request), so one slow RPC decomposes into its phases. *)
  let req_seq = Atomic.make 0

  let handler ~meth arg_codec ret_codec f =
    let run args =
      match P.decode_result arg_codec args with
      | Error m -> Error (Printf.sprintf "%s: bad argument: %s" meth m)
      | Ok a -> (
        match f a with
        | b -> Ok (P.encode ret_codec b)
        | exception e -> Error (Printf.sprintf "%s: %s" meth (Printexc.to_string e)))
    in
    { h_meth = meth; h_run = run }

  let serve ~handlers transport =
    let table = Hashtbl.create 16 in
    List.iter
      (fun h ->
        Hashtbl.replace table h.h_meth
          (h, m_requests h.h_meth, m_latency h.h_meth, m_errors h.h_meth))
      handlers;
    let unknown_requests = m_requests "_unknown" in
    let unknown_errors = m_errors "_unknown" in
    let latency_all = m_latency_all () in
    let rec loop () =
      match transport.Transport.recv () with
      | exception Rpc_error _ -> transport.Transport.close ()
      | msg ->
        let resp =
          match P.decode_result codec_request msg with
          | Error m ->
            Metrics.incr unknown_requests;
            Metrics.incr unknown_errors;
            { resp_id = -1; payload = Error ("undecodable request: " ^ m) }
          | Ok req -> (
            match Hashtbl.find_opt table req.meth with
            | None ->
              Metrics.incr unknown_requests;
              Metrics.incr unknown_errors;
              { resp_id = req.req_id; payload = Error ("unknown procedure " ^ req.meth) }
            | Some (h, mreq, mlat, merr) ->
              Metrics.incr mreq;
              let timed = Metrics.is_enabled () in
              let traced = Trace.active () in
              let handle () =
                let t0 = if timed || traced then Unix.gettimeofday () else 0.0 in
                let payload = h.h_run req.args in
                if timed || traced then begin
                  (* Clamped: a backward wall-clock step (NTP) must not
                     observe a negative latency. *)
                  let dt = Float.max 0.0 (Unix.gettimeofday () -. t0) in
                  if timed then begin
                    Metrics.observe mlat dt;
                    Metrics.observe latency_all dt
                  end;
                  if traced then
                    Trace.span "rpc.server"
                      ~attrs:
                        (("meth", req.meth)
                        ::
                        (match payload with
                        | Ok _ -> []
                        | Error e -> [ ("error", e) ]))
                      ~start_s:t0 ~dur_s:dt
                end;
                payload
              in
              let payload =
                if traced then
                  let rid =
                    Printf.sprintf "%s-%d" req.meth
                      (Atomic.fetch_and_add req_seq 1)
                  in
                  Trace.with_request rid handle
                else handle ()
              in
              (match payload with Error _ -> Metrics.incr merr | Ok _ -> ());
              { resp_id = req.req_id; payload })
        in
        (match transport.Transport.send (P.encode codec_response resp) with
        | () -> loop ()
        | exception Rpc_error _ -> transport.Transport.close ())
    in
    loop ()
end

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

type retry_policy = {
  max_attempts : int;
  initial_backoff_s : float;
  backoff_multiplier : float;
  max_backoff_s : float;
  jitter : bool;
}

let no_retry =
  {
    max_attempts = 1;
    initial_backoff_s = 0.0;
    backoff_multiplier = 1.0;
    max_backoff_s = 0.0;
    jitter = false;
  }

let default_retry =
  {
    max_attempts = 3;
    initial_backoff_s = 0.02;
    backoff_multiplier = 2.0;
    max_backoff_s = 1.0;
    jitter = true;
  }

let backoff_of_retry r =
  {
    Backoff.initial_s = r.initial_backoff_s;
    multiplier = r.backoff_multiplier;
    max_s = r.max_backoff_s;
    jitter = r.jitter;
  }

module Client = struct
  let m_broken =
    Metrics.counter "sdb_rpc_clients_broken_total"
      ~help:"Clients poisoned by a transport failure or response desync."

  let m_retries =
    Metrics.counter "sdb_rpc_client_retries_total"
      ~help:"Idempotent calls re-attempted after a transport failure."

  let m_reconnects =
    Metrics.counter "sdb_rpc_client_reconnects_total"
      ~help:"Fresh transports established for a broken client."

  let m_budget_denied =
    Metrics.counter "sdb_rpc_client_retries_denied_total"
      ~help:"Retries refused because the shared retry budget was empty."

  type t = {
    mutable transport : Transport.t;
    deadline_s : float option;
    retry : retry_policy;
    retry_budget : Backoff.Budget.t;
    reconnect : (unit -> Transport.t) option;
    (* Held across the whole call, transport I/O included: that IS the
       per-connection serialization contract, so the engine-side
       no-mutex-during-io assertion is deliberately not applied to the
       RPC transport layer (DESIGN.md §5). *)
    mutex : Sdb_check.Mu.t;
    mutable next_id : int;
    mutable is_broken : bool;
    mutable closed : bool;
  }

  let create ?deadline_s ?(retry = no_retry)
      ?(retry_budget = Backoff.Budget.unlimited) ?reconnect transport =
    if retry.max_attempts < 1 then
      invalid_arg "Rpc.Client.create: retry.max_attempts must be >= 1";
    Backoff.validate (backoff_of_retry retry);
    transport.Transport.set_recv_timeout deadline_s;
    {
      transport;
      deadline_s;
      retry;
      retry_budget;
      reconnect;
      mutex = Sdb_check.Mu.make "rpc.client";
      next_id = 0;
      is_broken = false;
      closed = false;
    }

  (* Poison the client: after any transport error — a send failure, a
     recv failure or timeout, or a response whose id does not match —
     the connection may still carry a stale in-flight response, so no
     later call may reuse it.  The transport is closed; only a fresh
     one (via [reconnect]) can revive the client. *)
  let break_ t =
    if not t.is_broken then begin
      t.is_broken <- true;
      Metrics.incr m_broken;
      try t.transport.Transport.close () with Rpc_error _ -> ()
    end

  let ensure_connected t =
    if t.closed then err "client closed";
    if t.is_broken then
      match t.reconnect with
      | None -> err "client poisoned by an earlier transport failure"
      | Some fresh ->
        let transport = fresh () in
        transport.Transport.set_recv_timeout t.deadline_s;
        t.transport <- transport;
        t.is_broken <- false;
        Metrics.incr m_reconnects

  let attempt t ~meth arg_codec ret_codec a =
    ensure_connected t;
    let id = t.next_id in
    t.next_id <- id + 1;
    let req = { req_id = id; meth; args = P.encode arg_codec a } in
    (try t.transport.Transport.send (P.encode codec_request req)
     with e ->
       break_ t;
       raise e);
    let resp_msg =
      try t.transport.Transport.recv ()
      with e ->
        break_ t;
        raise e
    in
    Transport.count_trip ();
    match P.decode_result codec_response resp_msg with
    | Error m ->
      break_ t;
      err "undecodable response: %s" m
    | Ok resp ->
      if resp.resp_id <> id then begin
        break_ t;
        err "response id %d does not match request id %d (client poisoned)"
          resp.resp_id id
      end;
      (match resp.payload with
      | Error m -> err "server: %s" m
      | Ok bytes -> (
        match P.decode_result ret_codec bytes with
        | Error m -> err "undecodable result: %s" m
        | Ok v -> v))

  (* Retries are confined to transport-level failures (the client is
     broken afterwards) of calls declared idempotent; a server-side
     error returns at once, and a non-idempotent call is never
     re-sent — the first attempt may have executed.  Delays come from
     {!Backoff} (exponential, full jitter, capped) and each retry
     spends a token from the client's budget: when a partition heals,
     a fleet of poisoned clients must trickle back, not stampede. *)
  let call ?(idempotent = false) t ~meth arg_codec ret_codec a =
    Sdb_check.Mu.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Sdb_check.Mu.unlock t.mutex)
      (fun () ->
        let attempts = if idempotent then t.retry.max_attempts else 1 in
        let backoff = Backoff.start (backoff_of_retry t.retry) in
        let rec go n =
          match attempt t ~meth arg_codec ret_codec a with
          | v -> v
          | exception (Rpc_error _ as e)
            when t.is_broken && n < attempts && t.reconnect <> None ->
            if not (Backoff.Budget.try_spend t.retry_budget) then begin
              Metrics.incr m_budget_denied;
              raise e
            end;
            Metrics.incr m_retries;
            let delay = Backoff.next_s backoff in
            if delay > 0.0 then Thread.delay delay;
            go (n + 1)
        in
        go 1)

  let broken t = t.is_broken

  let close t =
    t.closed <- true;
    t.transport.Transport.close ()
end
