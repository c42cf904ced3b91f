(* sdb_top: a live terminal view of one running name server.

   Polls the server's metrics RPC (the Prometheus text exposition — the
   same bytes a scraper would collect, so what this shows is what
   monitoring sees) plus the traces RPC for recent slow spans, and
   redraws in place every interval.  Rates are deltas between polls;
   quantiles are the server's all-time latency summaries.

   No engine code is linked against the store: this is a pure RPC
   client, safe to point at a production socket. *)

open Cmdliner
module Rpc = Sdb_rpc.Rpc
module Proto = Sdb_rpc.Ns_protocol

(* ------------------------------------------------------------------ *)
(* Prometheus text parsing                                             *)

type sample = { s_name : string; s_labels : (string * string) list; s_value : float }

(* Parse one exposition line: [name{labels} value] or [name value].
   Label values are double-quoted with backslash escapes for the quote,
   the backslash itself and newline (exactly what Metrics.render
   emits). *)
let parse_line line =
  let n = String.length line in
  if n = 0 || line.[0] = '#' then None
  else
    match String.index_opt line '{' with
    | None -> (
      match String.index_opt line ' ' with
      | None -> None
      | Some sp -> (
        let name = String.sub line 0 sp in
        let v = String.sub line (sp + 1) (n - sp - 1) in
        match float_of_string_opt (String.trim v) with
        | Some value -> Some { s_name = name; s_labels = []; s_value = value }
        | None -> None))
    | Some lb ->
      let name = String.sub line 0 lb in
      let labels = ref [] in
      let buf = Buffer.create 16 in
      let i = ref (lb + 1) in
      let key = ref "" in
      let ok = ref true in
      let state = ref `Key in
      while !ok && !i < n && !state <> `Done do
        let c = line.[!i] in
        (match !state with
        | `Key ->
          if c = '=' then begin
            key := Buffer.contents buf;
            Buffer.clear buf;
            if !i + 1 < n && line.[!i + 1] = '"' then begin
              incr i;
              state := `Value
            end
            else ok := false
          end
          else if c = '}' then state := `Done
          else Buffer.add_char buf c
        | `Value ->
          if c = '\\' && !i + 1 < n then begin
            incr i;
            Buffer.add_char buf
              (match line.[!i] with 'n' -> '\n' | c -> c)
          end
          else if c = '"' then begin
            labels := (!key, Buffer.contents buf) :: !labels;
            Buffer.clear buf;
            state := `AfterValue
          end
          else Buffer.add_char buf c
        | `AfterValue ->
          if c = ',' then state := `Key
          else if c = '}' then state := `Done
          else ok := false
        | `Done -> ());
        incr i
      done;
      if (not !ok) || !state <> `Done then None
      else
        let rest = String.trim (String.sub line !i (n - !i)) in
        match float_of_string_opt rest with
        | Some value ->
          Some { s_name = name; s_labels = List.rev !labels; s_value = value }
        | None -> None

let parse_exposition text =
  String.split_on_char '\n' text |> List.filter_map parse_line

let has s (k, v) = List.assoc_opt k s.s_labels = Some v

(* Sum over every series of a family matching all the given labels —
   counters aggregate across meths/peers this way. *)
let total samples name labels =
  List.fold_left
    (fun acc s ->
      if s.s_name = name && List.for_all (has s) labels then acc +. s.s_value
      else acc)
    0.0 samples

let find samples name labels =
  List.find_opt
    (fun s -> s.s_name = name && List.for_all (has s) labels)
    samples
  |> Option.map (fun s -> s.s_value)

(* ------------------------------------------------------------------ *)
(* One poll                                                            *)

type poll = {
  p_time : float;
  p_samples : sample list;
  p_spans : Sdb_obs.Trace.span list;
}

let poll ~socket ~spans =
  let t = Rpc.Socket.connect ~path:socket in
  let c = Proto.Client.create t in
  Fun.protect
    ~finally:(fun () -> Proto.Client.close c)
    (fun () ->
      let text = Proto.Client.metrics c in
      let sp =
        if spans > 0 then Proto.Client.traces c ~max_n:spans ~min_dur_s:0.0
        else []
      in
      { p_time = Unix.gettimeofday (); p_samples = parse_exposition text;
        p_spans = sp })

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let fmt_ms = Sdb_util.Tablefmt.fmt_ms

let fmt_rate v =
  if Float.is_nan v then "-" else Printf.sprintf "%.0f/s" v

let quantile samples name extra q =
  match find samples name (("quantile", q) :: extra) with
  | Some v -> fmt_ms (v *. 1000.0)
  | None -> "-"

let render ~socket ~prev ~cur =
  let b = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let dt =
    match prev with
    | Some p when cur.p_time > p.p_time -> cur.p_time -. p.p_time
    | _ -> nan
  in
  let delta name labels =
    match prev with
    | Some p ->
      (total cur.p_samples name labels -. total p.p_samples name labels) /. dt
    | None -> nan
  in
  let s = cur.p_samples in
  let tm = Unix.localtime cur.p_time in
  out "sdb_top — %s — %02d:%02d:%02d\n\n" socket tm.Unix.tm_hour
    tm.Unix.tm_min tm.Unix.tm_sec;
  out "  rpc:      %8s  errors %s  (lifetime %.0f reqs)\n"
    (fmt_rate (delta "sdb_rpc_requests_total" []))
    (fmt_rate (delta "sdb_rpc_errors_total" []))
    (total s "sdb_rpc_requests_total" []);
  let all = [ ("meth", "_all") ] in
  out "  latency:  p50 %s   p99 %s   p999 %s   max %s\n"
    (quantile s "sdb_rpc_latency_seconds" all "0.5")
    (quantile s "sdb_rpc_latency_seconds" all "0.99")
    (quantile s "sdb_rpc_latency_seconds" all "0.999")
    (match find s "sdb_rpc_latency_seconds_max" all with
    | Some v -> fmt_ms (v *. 1000.0)
    | None -> "-");
  out "  updates:  %8s  syncs %s\n"
    (fmt_rate (delta "sdb_updates_total" []))
    (fmt_rate (delta "sdb_wal_syncs_total" []));
  (* Mean commit-group size over the interval: how many updates each
     fsync carried.  Falls back to the lifetime mean on the first poll. *)
  let group =
    let dsum, dcount =
      match prev with
      | Some p ->
        ( total cur.p_samples "sdb_group_commit_size_sum" []
          -. total p.p_samples "sdb_group_commit_size_sum" [],
          total cur.p_samples "sdb_group_commit_size_count" []
          -. total p.p_samples "sdb_group_commit_size_count" [] )
      | None ->
        ( total s "sdb_group_commit_size_sum" [],
          total s "sdb_group_commit_size_count" [] )
    in
    if dcount > 0.0 then Printf.sprintf "%.2f" (dsum /. dcount) else "-"
  in
  out "  group:    mean size %s  checkpoints %.0f\n" group
    (total s "sdb_checkpoints_total" []);
  let outbox = total s "sdb_replica_outbox_depth" [] in
  let backlog = total s "sdb_replica_backlog" [] in
  if outbox > 0.0 || backlog > 0.0 || total s "sdb_replica_pushes_total" [] > 0.0
  then
    out "  replica:  outbox %.0f  backlog %.0f  pushes %s\n" outbox backlog
      (fmt_rate (delta "sdb_replica_pushes_total" []));
  (* Peer health, one entry per peer: the failure detector's verdict
     (from the sdb_replica_peer_state gauge) plus heartbeat RTT
     quantiles.  Only shown once a health monitor is running. *)
  let peer_states =
    List.filter (fun sm -> sm.s_name = "sdb_replica_peer_state") s
  in
  if peer_states <> [] then begin
    let show sm =
      let peer =
        Option.value ~default:"?" (List.assoc_opt "peer" sm.s_labels)
      in
      let state =
        match int_of_float sm.s_value with
        | 0 -> "alive"
        | 1 -> "SUSPECT"
        | 2 -> "DEAD"
        | _ -> "?"
      in
      let extra = [ ("peer", peer) ] in
      Printf.sprintf "%s %s (hb p50 %s  p99 %s)" peer state
        (quantile s "sdb_replica_heartbeat_rtt_seconds" extra "0.5")
        (quantile s "sdb_replica_heartbeat_rtt_seconds" extra "0.99")
    in
    out "  peers:    %s\n" (String.concat "   " (List.map show peer_states))
  end;
  let degraded = Option.value ~default:0.0 (find s "sdb_degraded" []) in
  out "  state:    %s  scrubs %.0f (damage %.0f, repairs %.0f)\n"
    (if degraded > 0.0 then "DEGRADED (read-only)" else "healthy")
    (total s "sdb_scrub_runs_total" [])
    (total s "sdb_scrub_damage_found_total" [])
    (total s "sdb_scrub_repairs_total" []);
  if cur.p_spans <> [] then begin
    out "\n  slow spans (newest first):\n";
    List.iter
      (fun sp ->
        let attrs =
          sp.Sdb_obs.Trace.attrs
          |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v)
          |> String.concat " "
        in
        out "    %-14s %9s  %s\n" sp.Sdb_obs.Trace.name
          (fmt_ms (sp.Sdb_obs.Trace.dur_s *. 1000.0))
          attrs)
      cur.p_spans
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

let run socket interval once spans =
  (* Home the cursor, then clear to end of screen: repaints in place
     without pushing old frames into the scrollback. *)
  let clear = "\027[H\027[J" in
  let prev = ref None in
  let rec loop () =
    (match poll ~socket ~spans with
    | cur ->
      if not once then print_string clear;
      print_string (render ~socket ~prev:!prev ~cur);
      flush stdout;
      prev := Some cur
    | exception e ->
      if not once then print_string clear;
      Printf.printf "sdb_top — %s — unreachable (%s)\n" socket
        (Printexc.to_string e);
      flush stdout;
      prev := None);
    if once then 0
    else begin
      Unix.sleepf interval;
      loop ()
    end
  in
  loop ()

let cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Server Unix-domain socket.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh interval.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print one snapshot and exit (no screen clear).")
  in
  let spans =
    Arg.(
      value & opt int 5
      & info [ "spans" ] ~docv:"N"
          ~doc:"Show the N most recent slow spans (0 disables).")
  in
  Cmd.v
    (Cmd.info "sdb-top" ~doc:"Live metrics view of a running smalldb-ns server")
    Term.(const run $ socket $ interval $ once $ spans)

let () = exit (Cmd.eval' cmd)
