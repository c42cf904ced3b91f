(* The name server as a daemon plus client commands, in the shape the
   paper describes: a server process owning the database directory,
   clients reaching it through RPC (here a Unix-domain socket).

   dune exec bin/smalldb_ns.exe -- serve --dir /tmp/ns --socket /tmp/ns.sock
   dune exec bin/smalldb_ns.exe -- set --socket /tmp/ns.sock /hosts/a 10.0.0.1
   dune exec bin/smalldb_ns.exe -- lookup --socket /tmp/ns.sock /hosts/a *)

module Ns = Sdb_nameserver.Nameserver
module Path = Sdb_nameserver.Name_path
module Data = Sdb_nameserver.Ns_data
module Rpc = Sdb_rpc.Rpc
module Proto = Sdb_rpc.Ns_protocol
open Cmdliner

let parse_path s =
  match Path.of_string s with
  | Ok p -> p
  | Error e ->
    prerr_endline ("invalid name: " ^ e);
    exit 2

(* ------------------------------------------------------------------ *)
(* serve                                                                *)

let serve dir socket checkpoint_bytes retain read_path metrics_interval
    scrub_interval trace_ring trace_slow_ms =
  let fs = Sdb_storage.Real_fs.create ~root:dir in
  (* Arm the slow-span ring before opening the database so recovery
     spans land in it too.  The ring is what the `traces` RPC verb and
     sdb_top read. *)
  if trace_ring > 0 then
    Sdb_obs.Trace.set_sink
      (Some
         (Sdb_obs.Trace.Slow.install ~capacity:trace_ring
            ~threshold_s:(trace_slow_ms /. 1000.0)));
  let config =
    {
      Smalldb.default_config with
      retain_previous = retain;
      read_path;
      policy =
        (match checkpoint_bytes with
        | Some n -> Smalldb.Log_bytes_exceeds n
        | None -> Smalldb.Manual);
    }
  in
  match Ns.open_ ~config fs with
  | Error e ->
    prerr_endline ("cannot open database: " ^ e);
    exit 1
  | Ok ns ->
    let s = Ns.stats ns in
    Printf.printf "serving %s on %s (generation %d, lsn %d, replayed %d)\n%!" dir
      socket s.Smalldb.generation s.Smalldb.lsn s.Smalldb.recovery.Smalldb.replayed;
    (match scrub_interval with
    | Some secs when secs > 0.0 -> Ns.start_scrubber ~interval:secs ns
    | _ -> ());
    let listener = Rpc.Socket.listen ~path:socket (Proto.serve ns) in
    let stop = ref false in
    let handler _ = stop := true in
    ignore (Sys.signal Sys.sigint (Sys.Signal_handle handler));
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle handler));
    (* Periodic metrics dump to stderr, where it cannot mix with client
       output on stdout. *)
    (match metrics_interval with
    | Some secs when secs > 0.0 ->
      ignore
        (Thread.create
           (fun () ->
             while not !stop do
               Unix.sleepf secs;
               if not !stop then
                 Printf.eprintf "%s%!" (Sdb_obs.Metrics.render ())
             done)
           ())
    | _ -> ());
    while not !stop do
      Unix.sleepf 0.2
    done;
    print_endline "shutting down";
    Rpc.Socket.shutdown listener;
    Ns.close ns

(* ------------------------------------------------------------------ *)
(* client commands                                                      *)

(* [conn] is (socket path, per-call deadline).  Client commands are one
   request against a possibly wedged server: without a deadline they
   would hang forever, so default to a few seconds and let --timeout 0
   opt out. *)
let with_client (socket, timeout) f =
  let deadline_s =
    match timeout with Some s when s > 0.0 -> Some s | _ -> None
  in
  match Rpc.Socket.connect ~path:socket with
  | exception Rpc.Rpc_error e ->
    prerr_endline e;
    exit 1
  | transport ->
    let client = Proto.Client.create ?deadline_s transport in
    Fun.protect ~finally:(fun () -> Proto.Client.close client) (fun () ->
        try f client
        with Rpc.Rpc_error e ->
          prerr_endline ("rpc: " ^ e);
          exit 1)

let lookup socket name =
  with_client socket (fun c ->
      match Proto.Client.lookup c (parse_path name) with
      | Some v -> print_endline v
      | None ->
        prerr_endline "(unbound)";
        exit 3)

let set socket name value =
  with_client socket (fun c ->
      Proto.Client.set_value c (parse_path name) (Some value))

let unset socket name =
  with_client socket (fun c -> Proto.Client.set_value c (parse_path name) None)

let ls socket name =
  with_client socket (fun c ->
      match Proto.Client.list_children c (parse_path name) with
      | Some children -> List.iter print_endline children
      | None ->
        prerr_endline "(no such name)";
        exit 3)

let rm socket name =
  with_client socket (fun c -> Proto.Client.delete_subtree c (parse_path name))

let mkdir socket name =
  with_client socket (fun c -> Proto.Client.create_name c (parse_path name))

let find socket pattern =
  with_client socket (fun c ->
      match Proto.Client.find c pattern with
      | Ok results ->
        List.iter
          (fun (path, value) ->
            match value with
            | Some v -> Printf.printf "%s\t%s\n" (Path.to_string path) v
            | None -> print_endline (Path.to_string path))
          results
      | Error e ->
        prerr_endline ("bad pattern: " ^ e);
        exit 2)

let export socket name depth =
  with_client socket (fun c ->
      match Proto.Client.export ?depth c (parse_path name) with
      | Some tree -> Format.printf "%a@." Data.pp_tree tree
      | None ->
        prerr_endline "(no such name)";
        exit 3)

let cas socket name expected value =
  with_client socket (fun c ->
      match
        Proto.Client.compare_and_set c (parse_path name) ~expected (Some value)
      with
      | Ok () -> ()
      | Error e ->
        prerr_endline ("refused: " ^ e);
        exit 4)

let checkpoint socket =
  with_client socket (fun c -> Proto.Client.checkpoint c)

let status socket =
  with_client socket (fun c ->
      Printf.printf "lsn:    %d\n" (Proto.Client.lsn c);
      Printf.printf "nodes:  %d\n" (Proto.Client.count_nodes c);
      Printf.printf "digest: %s\n" (Digest.to_hex (Proto.Client.digest c)))

let metrics socket =
  with_client socket (fun c -> print_string (Proto.Client.metrics c))

let traces socket max_n min_ms =
  with_client socket (fun c ->
      match Proto.Client.traces c ~max_n ~min_dur_s:(min_ms /. 1000.0) with
      | [] -> print_endline "(no slow spans retained)"
      | spans ->
        List.iter
          (fun (s : Sdb_obs.Trace.span) ->
            let attrs =
              String.concat ""
                (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) s.attrs)
            in
            Printf.printf "%.6f %-14s %9.3fms%s\n" s.start_s s.name
              (s.dur_s *. 1000.0) attrs)
          spans)

let print_scrub_report (r : Smalldb.scrub_report) =
  Printf.printf "scanned: %s\n" (String.concat " " r.Smalldb.scanned_files);
  Printf.printf "replay:  %s\n"
    (if r.Smalldb.replay_consistent then "consistent with memory"
     else "INCONSISTENT");
  List.iter
    (fun (f : Smalldb.scrub_finding) ->
      if f.Smalldb.offset >= 0 then
        Printf.printf "damage:  %s @%d: %s\n" f.Smalldb.file f.Smalldb.offset
          f.Smalldb.reason
      else Printf.printf "damage:  %s: %s\n" f.Smalldb.file f.Smalldb.reason)
    r.Smalldb.findings;
  if r.Smalldb.repaired then
    print_endline "repaired: fresh checkpoint written from memory";
  Printf.printf "%d finding(s) in %.3fs\n"
    (List.length r.Smalldb.findings)
    r.Smalldb.scrub_duration_s

(* Exit codes mirror sdb_inspect --scrub: 0 clean, 1 damage found,
   2 unreadable/failed. *)
let scrub socket repair =
  with_client socket (fun c ->
      match Proto.Client.scrub c ~repair with
      | r ->
        print_scrub_report r;
        if r.Smalldb.findings <> [] then exit 1
      | exception Rpc.Rpc_error e ->
        prerr_endline ("scrub failed: " ^ e);
        exit 2)

let health socket =
  with_client socket (fun c ->
      match Proto.Client.health c with
      | `Healthy -> print_endline "healthy"
      | `Degraded reason ->
        Printf.printf "degraded (read-only): %s\n" reason;
        exit 1
      | `Poisoned ->
        print_endline "poisoned";
        exit 2)

(* §4's restore-from-replica: wipe DIR and rebuild it from the server
   at the socket, which keeps serving throughout.  The restored store
   keeps the server's LSN. *)
let restore conn dir =
  with_client conn (fun c ->
      match Sdb_replica.Replica.repair_from_peer c (Sdb_storage.Real_fs.create ~root:dir) with
      | Error e ->
        prerr_endline e;
        exit 1
      | Ok ns ->
        Printf.printf "lsn:    %d\n" (Ns.stats ns).Smalldb.lsn;
        Printf.printf "digest: %s\n" (Digest.to_hex (Ns.digest ns));
        Ns.close ns)

(* ------------------------------------------------------------------ *)
(* command line                                                         *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"Unix-domain socket of the server.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) (Some 5.0)
    & info [ "timeout"; "t" ] ~docv:"SECS"
        ~doc:"Per-call RPC deadline in seconds; 0 waits forever.")

(* socket + deadline, the connection spec every client command takes. *)
let conn_arg = Term.(const (fun s t -> (s, t)) $ socket_arg $ timeout_arg)

let name_arg index =
  Arg.(
    required & pos index (some string) None & info [] ~docv:"NAME" ~doc:"Name (path).")

let serve_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Database directory.")
  in
  let ckpt =
    Arg.(
      value
      & opt (some int) (Some (4 * 1024 * 1024))
      & info [ "checkpoint-bytes" ] ~docv:"BYTES"
          ~doc:"Checkpoint when the log exceeds this size (omit for manual only).")
  in
  let retain =
    Arg.(
      value & flag
      & info [ "retain-previous" ]
          ~doc:"Keep the previous checkpoint generation for hard-error recovery.")
  in
  let read_path =
    let route = Arg.enum [ ("locked", `Locked); ("epoch", `Epoch) ] in
    Arg.(
      value & opt route `Locked
      & info [ "read-path" ] ~docv:"ROUTE"
          ~doc:
            "Query route: $(b,locked) (the paper's Shared lock) or \
             $(b,epoch) (lock-free: queries load the atomically published \
             root, never block updates and scale across cores).")
  in
  let metrics_interval =
    Arg.(
      value
      & opt (some float) None
      & info [ "metrics-interval" ] ~docv:"SECS"
          ~doc:"Dump the metrics registry to stderr every SECS seconds.")
  in
  let scrub_interval =
    Arg.(
      value
      & opt (some float) None
      & info [ "scrub-interval" ] ~docv:"SECS"
          ~doc:
            "Run a background integrity scrub (with automatic repair) every \
             SECS seconds.")
  in
  let trace_ring =
    Arg.(
      value & opt int 512
      & info [ "trace-ring" ] ~docv:"N"
          ~doc:
            "Keep the last N slow trace spans in memory, queryable with the \
             traces command (0 disables tracing).")
  in
  let trace_slow_ms =
    Arg.(
      value & opt float 1.0
      & info [ "trace-slow-ms" ] ~docv:"MS"
          ~doc:"Retain only spans at least MS milliseconds long.")
  in
  Cmd.v (Cmd.info "serve" ~doc:"Run the name server.")
    Term.(
      const serve $ dir $ socket_arg $ ckpt $ retain $ read_path
      $ metrics_interval $ scrub_interval $ trace_ring $ trace_slow_ms)

let client_cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let value_arg index =
  Arg.(required & pos index (some string) None & info [] ~docv:"VALUE" ~doc:"Value.")

let expected_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "expected" ] ~docv:"VALUE"
        ~doc:"Expected current value (omitted = expected unbound).")

let depth_arg =
  Arg.(value & opt (some int) None & info [ "depth" ] ~docv:"N" ~doc:"Depth limit.")

let restore_cmd =
  let from =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of the server to restore from.")
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir"; "d" ] ~docv:"DIR"
          ~doc:"Database directory to rebuild; its files are deleted first.")
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Rebuild DIR from a running server's checkpoint image (the paper's \
          restore from another replica), then print its LSN and digest.  No \
          server may have DIR open.")
    Term.(
      const restore $ (const (fun s t -> (s, t)) $ from $ timeout_arg) $ dir)

let cmds =
  [
    serve_cmd;
    restore_cmd;
    client_cmd "lookup" "Print the value bound at NAME."
      Term.(const lookup $ conn_arg $ name_arg 0);
    client_cmd "set" "Bind VALUE at NAME (creating intermediate names)."
      Term.(const set $ conn_arg $ name_arg 0 $ value_arg 1);
    client_cmd "unset" "Remove the value at NAME, keeping the node."
      Term.(const unset $ conn_arg $ name_arg 0);
    client_cmd "ls" "List the children of NAME."
      Term.(const ls $ conn_arg $ name_arg 0);
    client_cmd "rm" "Delete the subtree at NAME."
      Term.(const rm $ conn_arg $ name_arg 0);
    client_cmd "mkdir" "Create NAME (valueless) and its intermediates."
      Term.(const mkdir $ conn_arg $ name_arg 0);
    client_cmd "export" "Print the subtree at NAME."
      Term.(const export $ conn_arg $ name_arg 0 $ depth_arg);
    client_cmd "find" "List names matching a glob PATTERN (e.g. '/hosts/*/addr')."
      Term.(
        const find $ conn_arg
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"PATTERN" ~doc:"Glob pattern."));
    client_cmd "cas" "Compare-and-set the value at NAME."
      Term.(const cas $ conn_arg $ name_arg 0 $ expected_arg $ value_arg 1);
    client_cmd "checkpoint" "Ask the server to write a checkpoint."
      Term.(const checkpoint $ conn_arg);
    client_cmd "status" "Print server LSN, node count and digest."
      Term.(const status $ conn_arg);
    client_cmd "metrics" "Print the server's metrics registry (Prometheus text)."
      Term.(const metrics $ conn_arg);
    client_cmd "traces"
      "Print the server's recent slow trace spans (newest first)."
      Term.(
        const traces $ conn_arg
        $ Arg.(
            value & opt int 32
            & info [ "max" ] ~docv:"N" ~doc:"At most N spans.")
        $ Arg.(
            value & opt float 0.0
            & info [ "min-ms" ] ~docv:"MS"
                ~doc:"Only spans at least MS milliseconds long."));
    Cmd.v
      (Cmd.info "scrub"
         ~doc:
           "Run an online integrity scrub on the server: re-read checkpoint \
            and log, verify framing CRCs, and cross-check a shadow replay \
            against the live state."
         ~man:
           [
             `S Manpage.s_description;
             `P
               "Verifies the server's on-disk state end to end while it keeps \
                serving enquiries: a page-wise media scan of the current (and \
                retained previous) checkpoint and log, a CRC check of every \
                log frame, and a shadow replay of checkpoint + log \
                cross-checked against a canonical digest of the in-memory \
                state.";
             `P
               "With $(b,--repair), detected damage is repaired in place by \
                writing a fresh checkpoint from the known-good in-memory \
                state; the damaged files are removed.";
             `S Manpage.s_exit_status;
             `P "$(b,0) on a clean scrub.";
             `P "$(b,1) when damage was found (whether or not repaired).";
             `P "$(b,2) when the scrub could not run (store unreadable, \
                 server poisoned, or RPC failure).";
           ])
      Term.(
        const scrub $ conn_arg
        $ Arg.(
            value & flag
            & info [ "repair" ]
                ~doc:
                  "Self-repair on detected damage: write a fresh checkpoint \
                   from the known-good in-memory state."));
    Cmd.v
      (Cmd.info "health"
         ~doc:"Print the server's health (healthy / degraded / poisoned)."
         ~man:
           [
             `S Manpage.s_exit_status;
             `P "$(b,0) healthy.";
             `P
               "$(b,1) degraded: disk full, read-only — enquiries still \
                served; updates resume automatically once a checkpoint \
                reclaims log space.";
             `P "$(b,2) poisoned: restart (re-open) required.";
           ])
      Term.(const health $ conn_arg);
  ]

let () =
  let info =
    Cmd.info "smalldb_ns" ~version:"1.0.0"
      ~doc:"A replicated name server on the small-database engine."
  in
  exit (Cmd.eval (Cmd.group info cmds))
