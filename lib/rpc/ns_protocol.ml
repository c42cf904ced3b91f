module P = Sdb_pickle.Pickle
module Ns = Sdb_nameserver.Nameserver
module Ns_data = Sdb_nameserver.Ns_data

let codec_path = P.conv ~name:"ns.path" Fun.id Fun.id (P.list P.string)
let codec_value = P.option P.string
let codec_tree = Ns_data.codec_tree
let codec_update = Ns.codec_update

let codec_scrub_finding =
  P.record3 "ns.scrub_finding"
    (P.field "file" P.string (fun (f : Smalldb.scrub_finding) -> f.file))
    (P.field "offset" P.int (fun (f : Smalldb.scrub_finding) -> f.offset))
    (P.field "reason" P.string (fun (f : Smalldb.scrub_finding) -> f.reason))
    (fun file offset reason -> { Smalldb.file; offset; reason })

let codec_scrub_report =
  P.record5 "ns.scrub_report"
    (P.field "scanned_files" (P.list P.string) (fun (r : Smalldb.scrub_report) ->
         r.scanned_files))
    (P.field "findings" (P.list codec_scrub_finding)
       (fun (r : Smalldb.scrub_report) -> r.findings))
    (P.field "replay_consistent" P.bool (fun (r : Smalldb.scrub_report) ->
         r.replay_consistent))
    (P.field "repaired" P.bool (fun (r : Smalldb.scrub_report) -> r.repaired))
    (P.field "duration_s" P.float (fun (r : Smalldb.scrub_report) ->
         r.scrub_duration_s))
    (fun scanned_files findings replay_consistent repaired scrub_duration_s ->
      {
        Smalldb.scanned_files;
        findings;
        replay_consistent;
        repaired;
        scrub_duration_s;
      })

let codec_span =
  P.record4 "ns.span"
    (P.field "name" P.string (fun (s : Sdb_obs.Trace.span) -> s.name))
    (P.field "start_s" P.float (fun (s : Sdb_obs.Trace.span) -> s.start_s))
    (P.field "dur_s" P.float (fun (s : Sdb_obs.Trace.span) -> s.dur_s))
    (P.field "attrs"
       (P.list (P.pair P.string P.string))
       (fun (s : Sdb_obs.Trace.span) -> s.attrs))
    (fun name start_s dur_s attrs -> { Sdb_obs.Trace.name; start_s; dur_s; attrs })

let codec_health =
  P.variant ~name:"ns.health"
    [
      P.case0 "healthy" `Healthy (fun h -> h = `Healthy);
      P.case "degraded" P.string
        (function `Degraded r -> Some r | _ -> None)
        (fun r -> `Degraded r);
      P.case0 "poisoned" `Poisoned (fun h -> h = `Poisoned);
    ]

let handlers ns =
  let h = Rpc.Server.handler in
  (* Chunked-state cache for the resumable transfer verbs: the state's
     checkpoint image at one LSN, kept per connection (handlers are
     built per [serve]) so repeated [fetch_chunk] calls do not re-pickle
     the whole tree.  A chunk request for a different LSN than the
     cached one re-pickles; if the store has moved past the requested
     LSN the request is refused and the client restarts from fresh
     meta. *)
  let chunk_cache = ref None (* (lsn, digest, bytes) *) in
  let encoded_state () =
    let lsn, bytes = Ns.Db.image (Ns.db ns) in
    let meta = (lsn, Digest.string bytes, bytes) in
    chunk_cache := Some meta;
    meta
  in
  [
    h ~meth:"lookup" codec_path codec_value (fun p -> Ns.lookup ns p);
    h ~meth:"list_children" codec_path
      (P.option (P.list P.string))
      (fun p -> Ns.list_children ns p);
    h ~meth:"export"
      (P.pair codec_path (P.option P.int))
      (P.option codec_tree)
      (fun (p, depth) ->
        match depth with None -> Ns.export ns p | Some d -> Ns.export ~depth:d ns p);
    h ~meth:"count_nodes" P.unit P.int (fun () -> Ns.count_nodes ns);
    h ~meth:"find" P.string
      (P.result (P.list (P.pair codec_path codec_value)) P.string)
      (fun pattern ->
        match Sdb_nameserver.Name_glob.compile pattern with
        | Ok glob -> Ok (Ns.find ns glob)
        | Error e -> Error e);
    h ~meth:"set_value" (P.pair codec_path codec_value) P.unit (fun (p, v) ->
        Ns.set_value ns p v);
    h ~meth:"write_subtree" (P.pair codec_path codec_tree) P.unit (fun (p, t) ->
        Ns.write_subtree ns p t);
    h ~meth:"delete_subtree" codec_path P.unit (fun p -> Ns.delete_subtree ns p);
    h ~meth:"create" codec_path P.unit (fun p -> Ns.create ns p);
    h ~meth:"cas"
      (P.triple codec_path codec_value codec_value)
      (P.result P.unit P.string)
      (fun (p, expected, v) -> Ns.compare_and_set ns p ~expected v);
    h ~meth:"lsn" P.unit P.int (fun () -> (Ns.stats ns).Smalldb.lsn);
    h ~meth:"updates_since" P.int
      (P.option (P.list (P.pair P.int codec_update)))
      (fun from -> Ns.updates_since ns from);
    h ~meth:"checkpoint" P.unit P.unit (fun () -> Ns.checkpoint ns);
    h ~meth:"digest" P.unit P.string (fun () -> Ns.digest ns);
    h ~meth:"metrics" P.unit P.string (fun () -> Sdb_obs.Metrics.render ());
    (* The last slow spans from the process-global ring (empty unless
       the server installed one); the argument narrows the query. *)
    h ~meth:"traces"
      (P.pair P.int P.float)
      (P.list codec_span)
      (fun (max_n, min_dur_s) -> Sdb_obs.Trace.Slow.recent ~min_dur_s ~max_n ());
    h ~meth:"scrub" P.bool codec_scrub_report (fun repair -> Ns.scrub ~repair ns);
    h ~meth:"health" P.unit codec_health (fun () -> Ns.health ns);
    (* Heartbeat: the failure detector's probe.  Must stay the cheapest
       verb in the table (see {!Ns.ping}). *)
    h ~meth:"ping" P.unit P.int (fun () -> Ns.ping ns);
    (* Resumable state transfer: [fetch_meta] pins (lsn, digest, size)
       of the checkpoint image; [fetch_chunk] returns byte ranges of
       that exact string, or
       [None] when the pinned LSN is no longer current — the client
       then restarts from fresh meta.  A repair interrupted by a
       connection reset resumes from the last byte it holds instead of
       re-shipping the whole state. *)
    h ~meth:"fetch_meta" P.unit
      (P.triple P.int P.string P.int)
      (fun () ->
        let lsn, digest, bytes = encoded_state () in
        (lsn, digest, String.length bytes));
    h ~meth:"fetch_chunk"
      (P.triple P.int P.int P.int)
      (P.option P.string)
      (fun (lsn, offset, len) ->
        if offset < 0 || len < 0 then None
        else
          let cached =
            match !chunk_cache with
            | Some ((l, _, _) as c) when l = lsn -> Some c
            | _ ->
              let (l, _, _) as c = encoded_state () in
              if l = lsn then Some c else None
          in
          match cached with
          | None -> None
          | Some (_, _, bytes) ->
            let total = String.length bytes in
            if offset > total then None
            else Some (String.sub bytes offset (min len (total - offset))));
  ]

let serve ns transport = Rpc.Server.serve ~handlers:(handlers ns) transport

module Client = struct
  type t = Rpc.Client.t

  let create ?deadline_s ?retry ?retry_budget ?reconnect transport =
    Rpc.Client.create ?deadline_s ?retry ?retry_budget ?reconnect transport

  let close = Rpc.Client.close
  let call = Rpc.Client.call

  (* Enquiries are read-only and the update procedures below are
     last-writer-wins assignments (the property §4 replication already
     relies on), so all of them are safe to re-send after a transport
     failure.  Only [cas] is genuinely non-idempotent. *)
  let lookup t p = call ~idempotent:true t ~meth:"lookup" codec_path codec_value p

  let list_children t p =
    call ~idempotent:true t ~meth:"list_children" codec_path
      (P.option (P.list P.string))
      p

  let export ?depth t p =
    call ~idempotent:true t ~meth:"export"
      (P.pair codec_path (P.option P.int))
      (P.option codec_tree) (p, depth)

  let count_nodes t = call ~idempotent:true t ~meth:"count_nodes" P.unit P.int ()

  let find t pattern =
    call ~idempotent:true t ~meth:"find" P.string
      (P.result (P.list (P.pair codec_path codec_value)) P.string)
      pattern

  let set_value t p v =
    call ~idempotent:true t ~meth:"set_value"
      (P.pair codec_path codec_value)
      P.unit (p, v)

  let write_subtree t p tree =
    call ~idempotent:true t ~meth:"write_subtree"
      (P.pair codec_path codec_tree)
      P.unit (p, tree)

  let delete_subtree t p =
    call ~idempotent:true t ~meth:"delete_subtree" codec_path P.unit p

  let create_name t p = call ~idempotent:true t ~meth:"create" codec_path P.unit p

  let compare_and_set t p ~expected v =
    call t ~meth:"cas"
      (P.triple codec_path codec_value codec_value)
      (P.result P.unit P.string)
      (p, expected, v)

  let lsn t = call ~idempotent:true t ~meth:"lsn" P.unit P.int ()

  let updates_since t from =
    call ~idempotent:true t ~meth:"updates_since" P.int
      (P.option (P.list (P.pair P.int codec_update)))
      from

  let checkpoint t = call t ~meth:"checkpoint" P.unit P.unit ()
  let digest t = call ~idempotent:true t ~meth:"digest" P.unit P.string ()
  let metrics t = call ~idempotent:true t ~meth:"metrics" P.unit P.string ()

  let traces t ~max_n ~min_dur_s =
    call ~idempotent:true t ~meth:"traces"
      (P.pair P.int P.float)
      (P.list codec_span) (max_n, min_dur_s)

  (* [scrub] is read-only unless the server self-repairs, and a repeat
     repair is a no-op on an already-clean store — safe to re-send. *)
  let scrub t ~repair = call ~idempotent:true t ~meth:"scrub" P.bool codec_scrub_report repair
  let health t = call ~idempotent:true t ~meth:"health" P.unit codec_health ()
  let ping t = call ~idempotent:true t ~meth:"ping" P.unit P.int ()

  let fetch_meta t =
    call ~idempotent:true t ~meth:"fetch_meta" P.unit
      (P.triple P.int P.string P.int)
      ()

  let fetch_chunk t ~lsn ~offset ~len =
    call ~idempotent:true t ~meth:"fetch_chunk"
      (P.triple P.int P.int P.int)
      (P.option P.string) (lsn, offset, len)
end
