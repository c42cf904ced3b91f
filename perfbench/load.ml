(* The load generator: makes the inputs from the seed, starts the
   server process, drives it over the Unix-domain RPC socket from at
   most two threads on two connections, checks every answer, and prints
   the metrics.  The last line of output is the result object. *)

open Common
module Proto = Sdb_rpc.Ns_protocol
module Client = Sdb_rpc.Ns_protocol.Client
module Rpc = Sdb_rpc.Rpc
module Rng = Sdb_util.Rng
module Loadgen = Sdb_loadgen.Loadgen

(* ------------------------------------------------------------------ *)
(* The server process                                                   *)

type server = { pid : int; to_srv : out_channel; from_srv : in_channel }

let run_dir = ".perfbench_run"

let start_server w ~socket ~traced ~spans_file =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [|
      Sys.executable_name; "server"; "--workload"; w.name; "--socket"; socket;
      "--trace"; (if traced then "1" else "0"); "--spans"; spans_file;
    |]
  in
  let pid = Unix.create_process Sys.executable_name args in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_srv = Unix.out_channel_of_descr in_w; from_srv = Unix.in_channel_of_descr out_r }

let send srv line =
  output_string srv.to_srv line;
  output_char srv.to_srv '\n';
  flush srv.to_srv

let recv srv =
  let fields = line_to_fields (input_line srv.from_srv) in
  (match List.assoc_opt "error" fields with
  | Some e -> failwith ("server: " ^ e)
  | None -> ());
  fields

let command srv line = send srv line; recv srv
let command_ srv line = ignore (command srv line : (string * string) list)

let stop_server srv =
  (try ignore (command srv "quit" : (string * string) list) with _ -> ());
  close_out_noerr srv.to_srv;
  close_in_noerr srv.from_srv;
  match Unix.waitpid [] srv.pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Checks and counts                                                   *)

exception Wrong_answer of string

type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let tally = { attempted = 0; failed = 0; wrong = 0 }
let tally_mu = Mutex.create ()

let count ~attempted ~failed ~wrong =
  Mutex.lock tally_mu;
  tally.attempted <- tally.attempted + attempted;
  tally.failed <- tally.failed + failed;
  tally.wrong <- tally.wrong + wrong;
  Mutex.unlock tally_mu

(* What each connection has been told is committed: key -> value. *)
type acks = { acked : (int, string) Hashtbl.t; uncertain : (int, unit) Hashtbl.t }

let new_acks () = { acked = Hashtbl.create 1024; uncertain = Hashtbl.create 16 }

let expected ~seed acks k =
  match Hashtbl.find_opt acks.acked k with Some v -> v | None -> initial_value ~seed k

let check_lookup ~seed acks k got =
  if not (Hashtbl.mem acks.uncertain k) then
    match got with
    | Some v when v = expected ~seed acks k -> ()
    | _ -> raise (Wrong_answer (path_string k))

(* Read back keys through one client, checking each answer. *)
let verify ~seed client acks keys =
  let bad = ref 0 and failed = ref 0 in
  List.iter
    (fun k ->
      match Client.lookup client (path_of k) with
      | got -> (
        try check_lookup ~seed acks k got with Wrong_answer _ -> incr bad)
      | exception _ -> incr failed)
    keys;
  count ~attempted:(List.length keys) ~failed:!failed ~wrong:!bad;
  !bad + !failed = 0

(* ------------------------------------------------------------------ *)
(* One client connection, with its call spans in a traced run.         *)

type conn = { client : Client.t; id : int; mutable seq : int }

let connect ~socket id =
  let tr = Tracing.client_transport (Rpc.Socket.connect ~path:socket) in
  { client = Client.create tr; id; seq = 0 }

let client_lookup = Tracing.named "rpc.client.lookup"
let client_set = Tracing.named "rpc.client.set_value"

(* Time one stub call; in a traced run record it as the request's root
   span.  Returns the call's start and end. *)
let call c kind f =
  c.seq <- c.seq + 1;
  let t0 = now () in
  let r = f c.client in
  let t1 = now () in
  if Atomic.get Tracing.enabled then
    Tracing.span kind ~conn:c.id ~seq:c.seq ~start_s:t0 ~dur_s:(t1 -. t0);
  (r, t0, t1)

(* Update spans (start, end) seen by the clients, for the stall metric. *)
let update_spans : (float * float) list ref = ref []
let update_spans_mu = Mutex.create ()

let note_update_span t0 t1 =
  if Atomic.get Tracing.enabled then begin
    Mutex.lock update_spans_mu;
    update_spans := (t0, t1) :: !update_spans;
    Mutex.unlock update_spans_mu
  end

(* ------------------------------------------------------------------ *)
(* Closed loop: each connection sends its next request when the
   previous answer arrives, until the deadline.                        *)

type run_result = {
  completed : int;
  elapsed_s : float;
  latency : Histogram.t;  (** seconds *)
  max_lag_s : float;
}

let merge_results parts =
  let latency = Histogram.create () in
  List.iter (fun r -> Histogram.merge_into latency r.latency) parts;
  {
    completed = List.fold_left (fun a r -> a + r.completed) 0 parts;
    elapsed_s = List.fold_left (fun a r -> a +. r.elapsed_s) 0.0 parts;
    latency;
    max_lag_s = List.fold_left (fun a r -> Float.max a r.max_lag_s) 0.0 parts;
  }

let closed_loop ?(ops = 0) conns_ ~seconds ~(op : conn -> unit) =
  let start = now () in
  let deadline = start +. seconds in
  let quota = if ops > 0 then (ops + Array.length conns_ - 1) / Array.length conns_ else max_int in
  let worker c =
    let h = Histogram.create () and ok = ref 0 and failed = ref 0 and wrong = ref 0 in
    let last = ref start in
    while now () < deadline && !ok + !failed + !wrong < quota do
      let t0 = now () in
      (match op c with
      | () -> incr ok
      | exception Wrong_answer _ -> incr wrong
      | exception _ -> incr failed);
      let t1 = now () in
      last := t1;
      Histogram.record h (t1 -. t0)
    done;
    count ~attempted:(!ok + !failed + !wrong) ~failed:!failed ~wrong:!wrong;
    (h, !ok, !last)
  in
  let results = Array.make (Array.length conns_) None in
  let threads =
    Array.mapi (fun i c -> Thread.create (fun () -> results.(i) <- Some (worker c)) ()) conns_
  in
  Array.iter Thread.join threads;
  let latency = Histogram.create () in
  let completed = ref 0 and last = ref start in
  Array.iter
    (function
      | Some (h, ok, l) ->
        Histogram.merge_into latency h;
        completed := !completed + ok;
        if l > !last then last := l
      | None -> ())
    results;
  { completed = !completed; elapsed_s = !last -. start; latency; max_lag_s = 0.0 }

(* Open loop over Loadgen: arrivals on a Poisson schedule fixed in
   advance; latency from each request's intended arrival. *)
let open_loop conns_ ~seed ~rate ~seconds ~keys_per_conn ~(exec : conn -> Loadgen.op -> unit) =
  let cfg =
    {
      Loadgen.rate;
      duration_s = seconds;
      threads = Array.length conns_;
      keys = keys_per_conn;
      theta;
      read_fraction = 0.5;
      value_size = Loadgen.Fixed 24;
      schedule = Loadgen.Poisson;
      seed;
    }
  in
  let wrong = Atomic.make 0 in
  let exec ~thread op =
    try exec conns_.(thread) op
    with Wrong_answer _ as e ->
      Atomic.incr wrong;
      raise e
  in
  let r = Loadgen.run cfg ~exec in
  let w = Atomic.get wrong in
  count ~attempted:r.Loadgen.offered ~failed:(r.Loadgen.errors - w) ~wrong:w;
  {
    completed = r.Loadgen.completed;
    elapsed_s = r.Loadgen.elapsed_s;
    latency = r.Loadgen.latency;
    max_lag_s = r.Loadgen.max_lag_s;
  }

(* ------------------------------------------------------------------ *)
(* The operations of each workload                                      *)

(* Connection [i] owns the keys congruent to [i] modulo the number of
   connections, so its own acknowledgements say what it must read. *)
let owned_key i j = (j * conns) + i

let lookup ~seed acks c k =
  let got, _, _ = call c client_lookup (fun cl -> Client.lookup cl (path_of k)) in
  check_lookup ~seed acks.(c.id) k got

let set_value acks c k v =
  let a = acks.(c.id) in
  match call c client_set (fun cl -> Client.set_value cl (path_of k) (Some v)) with
  | (), t0, t1 ->
    note_update_span t0 t1;
    Hashtbl.replace a.acked k v
  | exception e ->
    Hashtbl.replace a.uncertain k ();
    raise e

let lookup_op ~seed ~entries rngs acks c = lookup ~seed acks c (Rng.zipf rngs.(c.id) ~n:entries ~theta)

let update_op ~seed ~entries rngs acks c =
  let k = owned_key c.id (Rng.zipf rngs.(c.id) ~n:(entries / conns) ~theta) in
  set_value acks c k (Printf.sprintf "w%d.%d.%d" seed c.id c.seq)

let mixed_exec ~seed acks c = function
  | Loadgen.Read j -> lookup ~seed acks c (owned_key c.id j)
  | Loadgen.Write (j, v) -> set_value acks c (owned_key c.id j) v

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = { m_name : string; m_unit : string; m_value : float; m_n : int }

let metric m_name m_unit m_value m_n = { m_name; m_unit; m_value; m_n }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-28s %16.6f %-8s n=%d\n" m.m_name m.m_value m.m_unit m.m_n)
    ms

(* Share of the blocking path: the mean client call, split into the
   self time of each layer measured around it, with whatever no span
   covers shown as its own row. *)
let print_breakdown title ~total rows =
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 rows in
  let rows = rows @ [ ("unattributed", total -. attributed) ] in
  Printf.printf "%s (mean call %.1f us)\n" title (total *. 1e6);
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-44s %10.1f us %6.1f%%\n" name (v *. 1e6) (100.0 *. div v total))
    rows

(* ------------------------------------------------------------------ *)

type opts = {
  w : workload;
  seed : int;
  seconds : float;
  traced : bool;
  rev : string;
  nproc : int;
}

let max_overlap intervals spans =
  List.fold_left
    (fun acc (a, b) ->
      if List.exists (fun (x, y) -> a <= y && b >= x) intervals then Float.max acc (b -. a)
      else acc)
    0.0 spans

(* A traced run alternates untraced and traced slices, this many in
   all, so the machine's drift falls on both alike. *)
let traced_slices = 10

let main o =
  let w = o.w in
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let tag = Printf.sprintf "%s-seed%d-trace%d" w.name o.seed (if o.traced then 1 else 0) in
  let socket = Filename.concat run_dir (Printf.sprintf "ns-%d.sock" (Unix.getpid ())) in
  let spans_file kind = Filename.concat run_dir (Printf.sprintf "spans-%s-%s.jsonl" tag kind) in
  let seed = o.seed in
  let srv = start_server w ~socket ~traced:o.traced ~spans_file:(spans_file "server") in
  let finished = ref false in
  at_exit (fun () ->
      if not !finished then begin
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] srv.pid : int * Unix.process_status)
        with Unix.Unix_error _ -> ()
      end);
  (* The inputs: every entry, sent to the server, which knows nothing
     of the seed. *)
  send srv (Printf.sprintf "load %d" w.entries);
  for i = 0 to w.entries - 1 do
    output_string srv.to_srv (path_string i);
    output_char srv.to_srv '\t';
    output_string srv.to_srv (initial_value ~seed i);
    output_char srv.to_srv '\n'
  done;
  flush srv.to_srv;
  let setup = recv srv in
  let initial_setups = floats_of_string (field setup "setup_s") in
  let conns_ = Array.init conns (connect ~socket) in
  let acks = Array.init conns (fun _ -> new_acks ()) in
  let rngs = Array.init conns (fun i -> Rng.create ~seed:((seed * 7919) + i)) in
  let run ?ops ~seconds ~phase () =
    match w.load with
    | Closed_lookup -> closed_loop ?ops conns_ ~seconds ~op:(lookup_op ~seed ~entries:w.entries rngs acks)
    | Closed_update -> closed_loop ?ops conns_ ~seconds ~op:(update_op ~seed ~entries:w.entries rngs acks)
    | Open_mixed rate ->
      open_loop conns_ ~seed:((seed * 31) + phase) ~rate ~seconds
        ~keys_per_conn:(w.entries / conns) ~exec:(mixed_exec ~seed acks)
  in
  (* Warm-up: caches fill, lazy set-up finishes; not measured. *)
  ignore (run ~ops:w.warmup_ops ~seconds:w.warmup_s ~phase:0 () : run_result);
  let slice ~traced ~seconds ~phase =
    command_ srv (Printf.sprintf "start %d" (if traced then 1 else 0));
    Atomic.set Tracing.enabled traced;
    let r = run ~seconds ~phase () in
    Atomic.set Tracing.enabled false;
    command_ srv "stop";
    r
  in
  (* Between slices the server crashes and reopens the store; each
     connection closes first and connects again after, keeping its
     call count. *)
  let maint = ref [] in
  let take_samples () =
    Array.iter (fun c -> Client.close c.client) conns_;
    maint := command srv "maint" :: !maint;
    Array.iteri (fun i c -> conns_.(i) <- { (connect ~socket i) with seq = c.seq }) conns_
  in
  (* The measured window.  Untraced, it is cut into the workload's
     slices, with the maintenance samples taken between them so they
     spread over the run.  Traced, untraced and traced slices
     alternate. *)
  let parts, traced_parts =
    if o.traced then begin
      let n = traced_slices in
      let rs =
        List.init n (fun i ->
            let traced = i mod 2 = 1 in
            (traced, slice ~traced ~seconds:(o.seconds /. float_of_int n) ~phase:(i + 1)))
      in
      ( List.filter_map (fun (t, r) -> if t then None else Some r) rs,
        List.filter_map (fun (t, r) -> if t then Some r else None) rs )
    end
    else
      ( List.init w.slices (fun i ->
            let r = slice ~traced:false ~seconds:(o.seconds /. float_of_int w.slices) ~phase:(i + 1) in
            if w.slice_reopens > 0 then take_samples ();
            r),
        [] )
  in
  let rep = command srv "report 0" in
  let rep_traced = if o.traced then Some (command srv "report 1") else None in
  let r = merge_results parts in
  let space = command srv "space" in
  (* Each connection reads back every key it updated. *)
  let acks_ok =
    Array.for_all
      (fun c ->
        verify ~seed c.client acks.(c.id)
          (Hashtbl.fold (fun k _ acc -> k :: acc) acks.(c.id).acked []))
      conns_
  in
  let probe =
    if o.traced then begin
      let keys = List.init 2000 (fun i -> (i * 7919) mod w.entries) in
      send srv (Printf.sprintf "probe %d" (List.length keys));
      List.iter (fun k -> output_string srv.to_srv (path_string k ^ "\n")) keys;
      flush srv.to_srv;
      Some (recv srv)
    end
    else None
  in
  Array.iter (fun c -> Client.close c.client) conns_;
  (* Crash, reopen several times, then check that every acknowledged
     write survived and a sample of untouched entries still reads. *)
  let rs = command srv "restart" in
  let checker = connect ~socket 0 in
  let all_acks = new_acks () in
  Array.iter
    (fun a ->
      Hashtbl.iter (fun k v -> Hashtbl.replace all_acks.acked k v) a.acked;
      Hashtbl.iter (fun k () -> Hashtbl.replace all_acks.uncertain k ()) a.uncertain)
    acks;
  let sample = List.init 1000 (fun i -> ((i * 104729) + seed) mod w.entries) in
  let durable_ok =
    verify ~seed checker.client all_acks
      (Hashtbl.fold (fun k _ acc -> k :: acc) all_acks.acked [] @ sample)
  in
  Client.close checker.client;
  let final_setups = command srv "setups" in
  let server_ok = stop_server srv in
  finished := true;
  (* ---------------------------------------------------------------- *)
  let fl = ffield rep in
  let ms v = v *. 1000.0 and us v = v *. 1e6 in
  let maint_samples k = List.concat_map (fun f -> floats_of_string (field f k)) (List.rev !maint) in
  let setup_times =
    initial_setups @ maint_samples "setup_s" @ floats_of_string (field final_setups "setup_s")
  in
  (* The reopens between slices when there are any, else the reopens
     after the final crash. *)
  let restart_times =
    match maint_samples "restart_s" with [] -> floats_of_string (field rs "restart_s") | l -> l
  in
  let ckpt_times = maint_samples "ckpt_s" in
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6 in
  (* Without checkpoints between slices, the checkpoints the window
     itself made. *)
  let ckpt_s, ckpt_n =
    match ckpt_times with
    | [] -> (div (fl "ckpt_pickle_s" +. fl "ckpt_write_s") (fl "ckpts"), int_of_float (fl "ckpts"))
    | l -> (median l, List.length l)
  in
  (* Each slice is one repetition: the run reports the median over
     slices, so a stall confined to one slice does not set the run's
     figure. *)
  let over_slices f = median (List.map f parts) in
  let rate p = div (float_of_int p.completed) p.elapsed_s in
  let pct q p = ms (percentile p.latency q) in
  let n_lat = Histogram.count r.latency in
  let e2e =
    [
      metric "setup_s" "s" (median setup_times) (List.length setup_times);
      metric "ops_per_s" "1/s" (over_slices rate) r.completed;
      metric "p50_ms" "ms" (over_slices (pct 50.0)) n_lat;
      metric "tail_ms" "ms" (over_slices (pct w.tail_pct)) n_lat;
      metric "heap_mb" "MB" (mb (fl "serving_words")) 1;
      metric "ckpt_s" "s" ckpt_s ckpt_n;
      metric "restart_s" "s" (median restart_times) (List.length restart_times);
      metric "space_amp" "ratio"
        (fdiv (ifield space "store_bytes") (ifield space "live_bytes"))
        1;
    ]
  in
  let per_layer =
    match (rep_traced, probe) with
    | Some t, Some pr ->
      let rt = merge_results traced_parts in
      let tf = ffield t in
      let ti k = int_of_float (tf k) in
      let ag = Tracing.agg in
      let cl = ag "rpc.client.lookup" and cs = ag "rpc.client.set_value" in
      let calls = cl.Tracing.n + cs.Tracing.n in
      let rtt = div (cl.Tracing.total_s +. cs.Tracing.total_s) (float_of_int calls) in
      let srv_n = ti "srv_lookup_n" + ti "srv_set_n" in
      let srv_s = div (tf "srv_lookup_s" +. tf "srv_set_s") (float_of_int srv_n) in
      let req = ag "rpc.req" and resp = ag "rpc.resp" in
      let updates = ti "updates" in
      let per_update v = div v (float_of_int updates) in
      let window = tf "window_s" in
      let ckpts = ti "ckpts" in
      let syncs_n = ti "wal_sync_n" + ti "ckpt_sync_n" + ti "meta_sync_n" in
      let syncs_s = tf "wal_sync_s" +. tf "ckpt_sync_s" +. tf "meta_sync_s" in
      let writes_n = ti "wal_write_n" + ti "ckpt_write_n" + ti "meta_write_n" in
      let writes_s = tf "wal_write_s" +. tf "ckpt_write_s" +. tf "meta_write_s" in
      let phases = tf "verify_s" +. tf "pickle_s" +. tf "log_s" +. tf "apply_s" in
      let ckpt_total = tf "ckpt_pickle_s" +. tf "ckpt_write_s" in
      let srv_set_mean = div (tf "srv_set_s") (float_of_int (ti "srv_set_n")) in
      let lookup_s = ffield pr "lookup_s" and pfind_s = ffield pr "pfind_s" in
      let intervals =
        let rec pairs = function a :: b :: rest -> (a, b) :: pairs rest | _ -> [] in
        pairs (floats_of_string (field t "ckpt_intervals"))
      in
      (* Each traced slice against the untraced slice just before it. *)
      let overhead =
        median
          (List.map2
             (fun u t ->
               match w.load with
               | Open_mixed _ -> div (percentile t.latency 50.0) (percentile u.latency 50.0) -. 1.0
               | Closed_lookup | Closed_update -> 1.0 -. div (rate t) (rate u))
             parts traced_parts)
      in
      let col name = floats_of_string (field rs name) in
      let pickle_ops = tf "pickle_ops" and pickle_bytes = tf "pickle_bytes" in
      let layer =
        [
          metric "rpc.rtt_us" "us" (us rtt) calls;
          metric "rpc.server_us" "us" (us srv_s) srv_n;
          metric "rpc.wire_us" "us" (us (rtt -. srv_s)) calls;
          metric "rpc.req_bytes" "bytes" (div (float_of_int req.Tracing.bytes) (float_of_int req.Tracing.n)) req.Tracing.n;
          metric "rpc.resp_bytes" "bytes" (div (float_of_int resp.Tracing.bytes) (float_of_int resp.Tracing.n)) resp.Tracing.n;
          metric "pickle.ops_per_req" "count" (div pickle_ops (float_of_int srv_n)) srv_n;
          metric "pickle.bytes_per_req" "bytes" (div pickle_bytes (float_of_int srv_n)) srv_n;
          metric "nameserver.lookup_us" "us" (us lookup_s) 2000;
          metric "ns_data.pfind_us" "us" (us pfind_s) 2000;
          metric "vlock.query_overhead_us" "us" (us (lookup_s -. pfind_s)) 2000;
          metric "vlock.wait_ms" "ms" (ms (div (tf "lock_wait_s") (tf "lock_wait_n"))) (ti "lock_wait_n");
          metric "core.verify_us" "us" (us (per_update (tf "verify_s"))) updates;
          metric "core.pickle_us" "us" (us (per_update (tf "pickle_s"))) updates;
          metric "core.log_us" "us" (us (per_update (tf "log_s"))) updates;
          metric "core.apply_us" "us" (us (per_update (tf "apply_s"))) updates;
          metric "core.queue_us" "us"
            (if updates = 0 then 0.0 else us (srv_set_mean -. per_update (phases +. ckpt_total)))
            updates;
          metric "wal.fsyncs_per_update" "count" (per_update (float_of_int (ti "wal_sync_n"))) updates;
          metric "wal.bytes_per_update" "bytes" (per_update (float_of_int (ti "wal_write_bytes"))) updates;
          metric "storage.sync_ms" "ms" (ms (div syncs_s (float_of_int syncs_n))) syncs_n;
          metric "storage.sync_busy_frac" "frac" (div syncs_s window) syncs_n;
          metric "storage.write_us" "us" (us (div writes_s (float_of_int writes_n))) writes_n;
          metric "checkpoint.count" "count" (float_of_int ckpts) ckpts;
          metric "checkpoint.pickle_s" "s" (div (tf "ckpt_pickle_s") (float_of_int ckpts)) ckpts;
          metric "checkpoint.write_s" "s" (div (tf "ckpt_write_s") (float_of_int ckpts)) ckpts;
          metric "checkpoint.bytes" "bytes" (div (float_of_int (ti "ckpt_write_bytes")) (float_of_int ckpts)) ckpts;
          metric "checkpoint.update_stall_ms" "ms" (ms (max_overlap intervals !update_spans)) ckpts;
          metric "restart.restore_s" "s" (median (col "restore_s")) w.reopens;
          metric "restart.replay_s" "s" (median (col "replay_s")) w.reopens;
          metric "restart.replayed" "count" (median (col "replayed")) w.reopens;
          metric "restart.bytes_read" "bytes" (median (col "bytes_read")) w.reopens;
          metric "gc.minor_words_per_op" "words/op" (div (tf "minor_words") (float_of_int srv_n)) srv_n;
          metric "gc.major_per_s" "1/s" (div (tf "major_gcs") window) (ti "major_gcs");
          metric "gc.top_heap_mb" "MB" (mb (tf "top_heap_words")) 1;
          metric "loadgen.max_lag_ms" "ms" (ms rt.max_lag_s) rt.completed;
          metric "trace.overhead_frac" "frac" overhead (List.length traced_parts);
        ]
      in
      (* Blocking-path breakdown, per request kind. *)
      let srv_lookup_mean = div (tf "srv_lookup_s") (float_of_int (ti "srv_lookup_n")) in
      if cl.Tracing.n > 0 then
        print_breakdown
          (Printf.sprintf "blocking path of lookup (%s, n=%d)" w.name cl.Tracing.n)
          ~total:(div cl.Tracing.total_s (float_of_int cl.Tracing.n))
          [
            ("rpc.wire (client call - server span)", div cl.Tracing.total_s (float_of_int cl.Tracing.n) -. srv_lookup_mean);
            ("vlock Shared acquire/release (probed)", lookup_s -. pfind_s);
            ("ns_data.pfind (probed)", pfind_s);
          ];
      if cs.Tracing.n > 0 then begin
        let wal_write = per_update (tf "wal_write_s") and wal_sync = per_update (tf "wal_sync_s") in
        print_breakdown
          (Printf.sprintf "blocking path of set_value (%s, n=%d)" w.name cs.Tracing.n)
          ~total:(div cs.Tracing.total_s (float_of_int cs.Tracing.n))
          [
            ("rpc.wire (client call - server span)", div cs.Tracing.total_s (float_of_int cs.Tracing.n) -. srv_set_mean);
            ("core.verify", per_update (tf "verify_s"));
            ("core.pickle", per_update (tf "pickle_s"));
            ("core.log self (log - wal write - wal sync)", per_update (tf "log_s") -. wal_write -. wal_sync);
            ("storage.write (wal)", wal_write);
            ("storage.sync (wal)", wal_sync);
            ("core.apply", per_update (tf "apply_s"));
            ("checkpoint (pickle + write, per update)", per_update ckpt_total);
          ]
      end;
      Tracing.write_spans (spans_file "client");
      Printf.printf "spans written to %s and %s\n" (spans_file "client") (spans_file "server");
      layer
    | _ -> []
  in
  let failed = tally.failed + tally.wrong in
  let reported = if o.traced then per_layer else e2e in
  let finite = List.for_all (fun m -> Float.is_finite m.m_value) (e2e @ per_layer) in
  let correct = failed = 0 && acks_ok && durable_ok && server_ok && finite in
  print_table (Printf.sprintf "end-to-end (%s, seed %d%s)" w.name seed
                 (if o.traced then ", untraced slices of a traced run" else "")) e2e;
  Printf.printf "  %-28s %16.6f %-8s n=%d\n" "failed_frac" (fdiv failed tally.attempted) "frac"
    tally.attempted;
  Printf.printf "  %-28s %16.6f %-8s n=%d (tail_ms is p%g)\n" "p99_ms" (over_slices (pct 99.0)) "ms"
    n_lat w.tail_pct;
  let samples name l = Printf.printf "  %s samples: %s\n" name (String.concat " " (List.map (Printf.sprintf "%.4f") l)) in
  Printf.printf "  by slice: ops/s %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.0f" (rate p)) parts));
  Printf.printf "  by slice: p99 ms %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.4f" (pct 99.0 p)) parts));
  Printf.printf "  slice medians (ms): %s\n"
    (String.concat " "
       (List.map
          (fun q -> Printf.sprintf "p%g=%.4f" q (over_slices (pct q)))
          [ 50.0; 75.0; 90.0; 95.0; 98.0; 99.0 ]));
  Printf.printf "  latency percentiles (ms): %s\n"
    (String.concat " "
       (List.map
          (fun q -> Printf.sprintf "p%g=%.4f" q (ms (percentile r.latency q)))
          [ 50.0; 90.0; 95.0; 98.0; 99.0; 99.5; 99.9 ]));
  samples "setup_s" setup_times;
  samples "ckpt_s" ckpt_times;
  samples "restart_s" restart_times;
  if per_layer <> [] then print_table "per-layer (traced slices)" per_layer;
  Printf.printf "checks: answers %s, acknowledged writes %s, durability after crash %s, server exit %s\n"
    (if tally.wrong = 0 then "ok" else "WRONG") (if acks_ok then "ok" else "FAILED")
    (if durable_ok then "ok" else "FAILED") (if server_ok then "ok" else "FAILED");
  let stamp =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \"nproc\": %d, \
       \"ocaml\": %S, \"rev\": %S, \"attempted\": %d, \"failed\": %d, \"samples\": {%s}}"
      w.name seed o.seconds (if o.traced then 1 else 0) o.nproc Sys.ocaml_version o.rev
      tally.attempted failed
      (String.concat ", " (List.map (fun m -> Printf.sprintf "%S: %d" m.m_name m.m_n) (e2e @ per_layer)))
  in
  Printf.printf "stamp %s\n" stamp;
  (* The same stamp with every metric this run measured, kept on disk. *)
  let all_json =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S, \"n\": %d}" m.m_name
             (json_number m.m_value) m.m_unit m.m_n)
         (e2e @ per_layer))
  in
  let oc = open_out (Filename.concat run_dir ("result-" ^ tag ^ ".json")) in
  Printf.fprintf oc "{\"stamp\": %s, \"correct\": %b, \"metrics\": {%s}}\n" stamp correct all_json;
  close_out oc;
  let metrics_json =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_number m.m_value) m.m_unit)
         reported)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    tally.attempted failed metrics_json;
  if not correct then exit 1
