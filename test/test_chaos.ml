(* Randomized disk-fault torture test (the CI `chaos` job).

   Each round wraps an in-memory store in the fault-injecting
   decorator, dials in random read/write/fsync fault rates, an
   occasional byte-capacity budget and occasional silent media damage,
   then drives a self-verifying sequenced workload with interleaved
   checkpoints and scrubs.  The property under test is the §4 failure
   taxonomy: every injected fault must end in one of

   - the update committing and surviving reopen,
   - a clean reject (structured I/O error, engine healthy, no partial
     effects),
   - read-only Degraded mode that exits by itself once space returns,
   - or Poisoned — after which a reopen recovers a clean prefix.

   Never a silent wrong answer, and never a stuck lock (a leak would
   deadlock the next operation; the CI job's timeout converts that
   into a failure).

   Usage: test_chaos.exe [--seed N] [--rounds M] [--report FILE]
   Exit status: 0 all rounds clean, 1 invariant violated. *)

module P = Sdb_pickle.Pickle
module Fs = Sdb_storage.Fs
module Mem = Sdb_storage.Mem_fs
module Fault = Sdb_storage.Fault_fs
module Store = Sdb_checkpoint.Checkpoint_store

module Smap = Map.Make (String)

module KV = struct
  type state = string Smap.t
  type update = Set of string * string

  let name = "chaos-kv"

  let codec_state =
    P.conv ~name:"chaos-kv.state" Smap.bindings
      (fun bindings -> Smap.of_seq (List.to_seq bindings))
      (P.list (P.pair P.string P.string))

  let codec_update =
    P.conv ~name:"chaos-kv.update"
      (fun (Set (k, v)) -> (k, v))
      (fun (k, v) -> Set (k, v))
      (P.pair P.string P.string)

  let init () = Smap.empty
  let apply st (Set (k, v)) = Smap.add k v st
end

module Db = Smalldb.Make (KV)

let key i = Printf.sprintf "k%04d" i
let value i = Printf.sprintf "v%04d" i

(* The report: one line per event, dumped to a file for the CI
   artifact and to stderr on failure. *)
let report = Buffer.create 4096

let logf fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string report s;
      Buffer.add_char report '\n')
    fmt

let failures = ref 0

let violation fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      logf "VIOLATION: %s" s;
      Printf.eprintf "VIOLATION: %s\n%!" s)
    fmt

(* Clean-prefix check on the live state. *)
let prefix_of db =
  Db.query db (fun st ->
      let n = Smap.cardinal st in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Smap.find_opt (key i) st <> Some (value i) then ok := false
      done;
      if !ok then Some n else None)

let describe = function
  | Fs.Io_error _ as e -> Fs.describe_exn e
  | Fs.No_space _ as e -> Fs.describe_exn e
  | Smalldb.Degraded r -> "degraded: " ^ r
  | Smalldb.Poisoned -> "poisoned"
  | e -> Printexc.to_string e

let round ~seed r =
  let rng = Random.State.make [| seed; r; 0xC4A05 |] in
  let store = Mem.create_store ~seed:((seed * 1000) + r) () in
  let ctl, ffs = Fault.wrap ~seed:((seed * 7) + r) (Mem.fs store) in
  let n = 40 in
  (* Alternate rounds run through the group-commit coordinator: the
     workload is single-threaded, so every update is a group of one —
     same guarantees, different commit path under fault fire. *)
  let config =
    { Smalldb.default_config with group_commit = r mod 2 = 1 }
  in
  logf "round %d.%d%s" seed r (if config.Smalldb.group_commit then " (grouped)" else "");
  match Db.open_ ~config ffs with
  | Error e ->
    (* Can only happen if creation itself was faulted — not possible
       here since faults are not armed yet. *)
    violation "round %d.%d: fresh open failed: %s" seed r e
  | Ok db ->
    (* Dial in this round's fault schedule. *)
    let rate op lo hi =
      let x = lo +. Random.State.float rng (hi -. lo) in
      Fault.set_fault_rate ctl ~op x;
      x
    in
    let wr = rate `Write 0.0 0.08 in
    let sr = rate `Sync 0.0 0.04 in
    let rr = rate `Read 0.0 0.04 in
    let capped =
      Random.State.int rng 3 = 0
      && begin
           Fault.set_capacity ctl (Some (Mem.total_bytes store + 400));
           true
         end
    in
    logf "  rates w=%.3f s=%.3f r=%.3f capped=%b" wr sr rr capped;
    let committed = ref 0 in
    let poisoned = ref false in
    (* Injected silent rot that no completed scrub has repaired yet.
       While it is outstanding, committed entries can genuinely be
       destroyed on disk, and a refusing recovery ("restore from a
       replica") is a sanctioned outcome — that is the §4 story, not a
       harness failure. *)
    let rot_outstanding = ref false in
    let i = ref 0 in
    let deadline = Unix.gettimeofday () +. 30. in
    while (not !poisoned) && !i < n do
      if Unix.gettimeofday () > deadline then begin
        violation "round %d.%d: wedged (possible lock leak)" seed r;
        poisoned := true (* abandon the round *)
      end
      else begin
        (* Occasionally interleave a checkpoint or a repairing scrub. *)
        (match Random.State.int rng 10 with
        | 0 -> (
          match Db.checkpoint db with
          | () -> ()
          | exception (Fs.Io_error _ | Fs.No_space _ | Smalldb.Degraded _) -> ()
          | exception Smalldb.Poisoned -> poisoned := true)
        | 1 -> (
          (* Silent rot on a random current-generation file, then a
             repairing scrub; with read faults active the scrub may
             also see injected damage — both are its job to survive. *)
          (if Random.State.int rng 2 = 0 then
             let gen = (Db.stats db).Smalldb.generation in
             let file = Store.log_file gen in
             let size = Mem.total_bytes store in
             if size > 64 then (
               try
                 Mem.damage store ~file ~offset:(24 + Random.State.int rng 64)
                   ~len:4;
                 rot_outstanding := true
               with _ -> ()));
          match Db.scrub ~repair:true db with
          | (rep : Smalldb.scrub_report) ->
            if rep.Smalldb.repaired || rep.Smalldb.findings = [] then
              rot_outstanding := false
          | exception (Fs.Io_error _ | Fs.No_space _) -> ()
          | exception Smalldb.Poisoned -> poisoned := true)
        | _ -> ());
        if not !poisoned then begin
          match Db.update db (KV.Set (key !i, value !i)) with
          | () ->
            committed := !i + 1;
            incr i
          | exception Fs.Io_error _ -> () (* clean reject: retry *)
          | exception Smalldb.Degraded _ ->
            (* Space "turns up": drop the cap and let the engine exit
               by itself on a later retry. *)
            Fault.set_capacity ctl None;
            Thread.delay 0.02
          | exception Smalldb.Poisoned -> poisoned := true
        end
      end
    done;
    logf "  committed=%d poisoned=%b injected=%d" !committed !poisoned
      (Fault.injected ctl);
    (* The engine's own answer must be honest before reopen. *)
    if not !poisoned then begin
      (match Db.health db with
      | `Healthy | `Degraded _ -> ()
      | `Poisoned ->
        violation "round %d.%d: poisoned without raising" seed r);
      match prefix_of db with
      | Some live when live = !committed -> ()
      | Some live ->
        violation "round %d.%d: live state %d != committed %d" seed r live
          !committed
      | None -> violation "round %d.%d: live state not a clean prefix" seed r
    end;
    (* Disarm everything and verify durability through a fresh open on
       the raw (fault-free) store. *)
    Fault.clear ctl;
    (try Db.close db with _ -> ());
    (match Db.open_ (Mem.fs store) with
    | Error e ->
      (* Refusal is only sanctioned when unrepaired rot could have put
         interior damage in the log; otherwise recovery must work. *)
      if !rot_outstanding then logf "  refused (outstanding rot): %s" e
      else violation "round %d.%d: recovery failed: %s" seed r e
    | Ok db2 ->
      (match prefix_of db2 with
      | None -> violation "round %d.%d: recovered state not a clean prefix" seed r
      | Some got ->
        (* Everything acked must survive; at most the one in-flight
           update beyond it may also have become durable.  Unrepaired
           rot may legitimately have destroyed a committed tail, but
         the result must still be a clean prefix. *)
        if got > !committed + 1 then
          violation "round %d.%d: phantom updates (%d > %d + 1)" seed r got
            !committed
        else if got < !committed && not !rot_outstanding then
          violation "round %d.%d: recovered %d, committed %d" seed r got
            !committed);
      (* A repairing scrub followed by a plain scrub must leave the
         store clean — no fault injection active now. *)
      (match Db.scrub ~repair:true db2 with
      | (_ : Smalldb.scrub_report) -> (
        match Db.scrub db2 with
        | rep ->
          if rep.Smalldb.findings <> [] then
            violation "round %d.%d: %d findings after repair" seed r
              (List.length rep.Smalldb.findings)
        | exception e ->
          violation "round %d.%d: post-repair scrub raised %s" seed r
            (describe e))
      | exception e ->
        violation "round %d.%d: clean-store scrub raised %s" seed r (describe e));
      Db.close db2)

let () =
  let seed = ref 1 and rounds = ref 25 and report_file = ref "chaos-report.txt" in
  let rec parse = function
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--rounds" :: v :: rest ->
      rounds := int_of_string v;
      parse rest
    | "--report" :: v :: rest ->
      report_file := v;
      parse rest
    | [] -> ()
    | arg :: _ ->
      Printf.eprintf "usage: test_chaos [--seed N] [--rounds M] [--report FILE]\n";
      Printf.eprintf "unknown argument: %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  logf "chaos: seed=%d rounds=%d" !seed !rounds;
  for r = 1 to !rounds do
    round ~seed:!seed r
  done;
  let oc = open_out !report_file in
  output_string oc (Buffer.contents report);
  close_out oc;
  if !failures > 0 then begin
    Printf.eprintf "chaos: %d violation(s); report in %s\n" !failures !report_file;
    exit 1
  end
  else Printf.printf "chaos: seed=%d, %d rounds clean\n" !seed !rounds
