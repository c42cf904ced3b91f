(* Timing decorators for the traced run.  Every span is recorded here,
   around calls into a layer's public interface — the RPC
   [Transport.t] record and the [Fs.t] record are wrapped, nothing
   inside the library is touched.  Spans stay in memory and are written
   out when the run ends.  With [enabled] false each decorator costs
   one atomic load per call. *)

module Fs = Sdb_storage.Fs
module Transport = Sdb_rpc.Rpc.Transport

let now = Common.now
let enabled = Atomic.make false

(* ------------------------------------------------------------------ *)
(* Aggregates per span name: count, total duration, bytes.             *)

type agg = { mutable n : int; mutable total_s : float; mutable bytes : int }

let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32
let aggs_mu = Mutex.create ()

(* The aggregate of a name, created on first use.  Hot paths resolve
   theirs once and keep it. *)
let slot name =
  Mutex.lock aggs_mu;
  let a =
    match Hashtbl.find_opt aggs name with
    | Some a -> a
    | None ->
      let a = { n = 0; total_s = 0.0; bytes = 0 } in
      Hashtbl.replace aggs name a;
      a
  in
  Mutex.unlock aggs_mu;
  a

let add a ~bytes dur =
  Mutex.lock aggs_mu;
  a.n <- a.n + 1;
  a.total_s <- a.total_s +. dur;
  a.bytes <- a.bytes + bytes;
  Mutex.unlock aggs_mu

let agg name =
  Mutex.lock aggs_mu;
  let r =
    match Hashtbl.find_opt aggs name with
    | Some a -> { n = a.n; total_s = a.total_s; bytes = a.bytes }
    | None -> { n = 0; total_s = 0.0; bytes = 0 }
  in
  Mutex.unlock aggs_mu;
  r

(* ------------------------------------------------------------------ *)
(* Span store: name, start, duration, request id and the span that
   caused it.  Bounded so a long traced run cannot grow without limit;
   the aggregates above still count every span. *)

type span = {
  name : string;
  conn : int;  (** request id: connection index and call number on it; -1 = none *)
  seq : int;
  parent : bool;  (** the request is this span's parent, not the span itself *)
  start_s : float;
  dur_s : float;
  bytes : int;
}

let cap = 50_000
let spans : span list ref = ref []
let kept = ref 0
let dropped = ref 0
let spans_mu = Mutex.create ()

let add_span s =
  Mutex.lock spans_mu;
  if !kept < cap then begin
    spans := s :: !spans;
    incr kept
  end
  else incr dropped;
  Mutex.unlock spans_mu

let span ?(conn = -1) ?(seq = 0) ?(parent = false) ?(bytes = 0) (name, a) ~start_s ~dur_s =
  add a ~bytes dur_s;
  add_span { name; conn; seq; parent; start_s; dur_s; bytes }

(* A span name with its aggregate. *)
let named name = (name, slot name)

(* One JSON object per line.  "req" names the request a span belongs
   to; "parent" the request whose server span caused it. *)
let write_spans file =
  Mutex.lock spans_mu;
  let l = List.rev !spans and d = !dropped in
  Mutex.unlock spans_mu;
  let oc = open_out file in
  List.iter
    (fun s ->
      let id = if s.conn < 0 then "" else Printf.sprintf "c%d-%d" s.conn s.seq in
      Printf.fprintf oc
        "{\"name\":%S,\"%s\":%S,\"start_s\":%.6f,\"dur_s\":%.9f,\"bytes\":%d}\n"
        s.name (if s.parent then "parent" else "req") id s.start_s s.dur_s s.bytes)
    l;
  if d > 0 then Printf.fprintf oc "{\"dropped\":%d}\n" d;
  close_out oc

(* ------------------------------------------------------------------ *)
(* The request a server thread is handling, so storage spans name the
   request that caused them.  Set when a request arrives. *)

let current : (int, int * int) Hashtbl.t = Hashtbl.create 8
let current_mu = Mutex.create ()

let set_current req =
  let id = Thread.id (Thread.self ()) in
  Mutex.lock current_mu;
  Hashtbl.replace current id req;
  Mutex.unlock current_mu

let get_current () =
  let id = Thread.id (Thread.self ()) in
  Mutex.lock current_mu;
  let r = Option.value ~default:(-1, 0) (Hashtbl.find_opt current id) in
  Mutex.unlock current_mu;
  r

(* ------------------------------------------------------------------ *)
(* RPC transport                                                       *)

(* Whether [sub] occurs in the first 64 bytes of [s], without
   allocating. *)
let contains s sub =
  let n = min 64 (String.length s) and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = i + m <= n && (matches i 0 || at (i + 1)) in
  at 0

let srv_set = named "rpc.server.set_value"
let srv_lookup = named "rpc.server.lookup"
let srv_other = named "rpc.server.other"

(* The procedure a request names, read from its bytes without decoding
   it (decoding would add to the pickle counters being measured). *)
let meth_of msg =
  if contains msg "set_value" then srv_set
  else if contains msg "lookup" then srv_lookup
  else srv_other

(* Server spans longer than this are kept whole, outside the bounded
   store: the checkpoint-carrying updates are among them. *)
let long_threshold_s = 0.02
let long_spans : (float * float) list ref = ref []

(* Server side of one connection: the span runs from the moment a
   request has been received to the moment its response is handed to
   the socket — decode, dispatch, the layers below, encode. *)
let server_transport ~conn (tr : Transport.t) =
  let seq = ref 0 and t_recv = ref 0.0 and meth = ref srv_other and req_bytes = ref 0 in
  {
    tr with
    Transport.recv =
      (fun () ->
        let m = tr.Transport.recv () in
        incr seq;
        if Atomic.get enabled then begin
          t_recv := now ();
          meth := meth_of m;
          req_bytes := String.length m;
          set_current (conn, !seq)
        end;
        m);
    send =
      (fun m ->
        (if Atomic.get enabled && !t_recv > 0.0 then begin
           let t = now () in
           let dur_s = t -. !t_recv in
           span !meth ~conn ~seq:!seq ~bytes:(!req_bytes + String.length m) ~start_s:!t_recv
             ~dur_s;
           if dur_s > long_threshold_s then begin
             Mutex.lock spans_mu;
             long_spans := (!t_recv, t) :: !long_spans;
             Mutex.unlock spans_mu
           end
         end);
        t_recv := 0.0;
        tr.Transport.send m);
  }

(* Client side: request and response sizes.  The call span itself is
   timed by the load generator around each stub call. *)
let client_transport (tr : Transport.t) =
  let req = slot "rpc.req" and resp = slot "rpc.resp" in
  {
    tr with
    Transport.send =
      (fun m ->
        if Atomic.get enabled then add req ~bytes:(String.length m) 0.0;
        tr.Transport.send m);
    recv =
      (fun () ->
        let m = tr.Transport.recv () in
        if Atomic.get enabled then add resp ~bytes:(String.length m) 0.0;
        m);
  }

(* ------------------------------------------------------------------ *)
(* File system                                                         *)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Which layer a file belongs to: the write-ahead log, a checkpoint, or
   the version pointer files. *)
let file_class f =
  if has_prefix "logfile" f then "wal" else if has_prefix "checkpoint" f then "ckpt" else "meta"

let ckpt_creates : float list ref = ref []

let timed name ~bytes f =
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let conn, seq = get_current () in
    span name ~conn ~seq ~parent:true ~bytes ~start_s:t0 ~dur_s:(now () -. t0);
    r
  end

let wrap_writer (w : Fs.writer) =
  let cls = file_class w.Fs.w_file in
  let write = named ("storage.write." ^ cls) and sync = named ("storage.sync." ^ cls) in
  {
    w with
    Fs.w_write = (fun s -> timed write ~bytes:(String.length s) (fun () -> w.Fs.w_write s));
    w_sync = (fun () -> timed sync ~bytes:0 w.Fs.w_sync);
  }

let wrap_random (r : Fs.random) =
  let cls = file_class r.Fs.rw_file in
  let write = named ("storage.write." ^ cls) and sync = named ("storage.sync." ^ cls) in
  {
    r with
    Fs.pwrite = (fun ~off s -> timed write ~bytes:(String.length s) (fun () -> r.Fs.pwrite ~off s));
    rw_sync = (fun () -> timed sync ~bytes:0 r.Fs.rw_sync);
  }

let note_create f =
  if Atomic.get enabled && file_class f = "ckpt" then begin
    Mutex.lock spans_mu;
    ckpt_creates := now () :: !ckpt_creates;
    Mutex.unlock spans_mu
  end

let fs (inner : Fs.t) =
  {
    inner with
    Fs.create =
      (fun f ->
        note_create f;
        wrap_writer (inner.Fs.create f));
    open_append = (fun f -> wrap_writer (inner.Fs.open_append f));
    open_random = (fun f -> wrap_random (inner.Fs.open_random f));
  }

(* The server spans that carried a checkpoint: each long span during
   which a checkpoint file was created.  Its interval bounds the time
   the checkpoint held the update lock. *)
let checkpoint_intervals () =
  Mutex.lock spans_mu;
  let creates = !ckpt_creates and longs = !long_spans in
  Mutex.unlock spans_mu;
  List.filter (fun (a, b) -> List.exists (fun c -> c >= a && c <= b) creates) longs
