(* Shared by the load generator and the server process: the generated
   database, timing helpers, and the one-line text protocol the two
   processes use on the server's stdin/stdout (the RPC socket carries
   only name-server traffic). *)

module Path = Sdb_nameserver.Name_path
module Histogram = Sdb_util.Histogram

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* The database                                                        *)

(* Entry [i] lives at /dNN/k<i>: 64 directories keep each directory's
   child list short, the way a real name space spreads its names. *)
let dirs = 64
let path_of i = [ Printf.sprintf "d%02d" (i mod dirs); Printf.sprintf "k%d" i ]
let path_string i = Path.to_string (path_of i)

(* The value entry [i] holds before any update: 24 hex digits that
   depend on the seed, so a lookup answer can be checked without asking
   anyone. *)
let initial_value ~seed i =
  Printf.sprintf "%08x%08x%08x"
    (Hashtbl.hash (seed, i, 0) land 0xffffffff)
    (Hashtbl.hash (seed, i, 1) land 0xffffffff)
    (Hashtbl.hash (seed, i, 2) land 0xffffffff)

(* Live user bytes of a binding: the name's text and the value. *)
let user_bytes path value = String.length (Path.to_string path) + String.length value

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type load =
  | Closed_lookup  (** every request a lookup; zipf over all entries *)
  | Closed_update  (** every request a set_value; each connection owns half the keys *)
  | Open_mixed of float  (** Poisson arrivals at this total rate, half lookups *)

type workload = {
  name : string;
  entries : int;
  group_commit : bool;
  policy : Smalldb.checkpoint_policy;
  load : load;
  tail_pct : float;  (** the percentile [tail_ms] reports *)
  warmup_s : float;  (** load before the measured window, not measured... *)
  warmup_ops : int;  (** ...or, if positive, until this many requests, whichever comes first *)
  slices : int;  (** the measured window is cut into this many slices *)
  slice_reopens : int;  (** crash-reopens of the served store after each slice *)
  slice_checkpoints : int;
      (** then this many checkpoints of it and set-ups from scratch; 0 =
          the window's own checkpoints give [ckpt_s] *)
  setups : int;  (** set-ups before the load, and again after the checks *)
  gap_s : float;  (** idle time between repeated set-ups and final reopens *)
  reopens : int;  (** reopens of the served store after the final crash *)
}

let theta = 0.9
let conns = 2

(* [tail_ms] is each workload's [tail_pct] latency.  On the open loop
   checkpoint stalls delay some 10% of requests, and p99 measures the
   stall.  On the closed loops the slowest 1% are the requests a
   stalled virtual CPU delayed: over ten runs their p99 spread 0.5 to
   1.0 of its median, so their tail is p90, which the program sets
   rather than the host.  Every run still prints p99. *)

let workloads =
  [
    {
      name = "lookup-rpc";
      entries = 23_000;
      group_commit = true;
      policy = Smalldb.Manual;
      load = Closed_lookup;
      tail_pct = 90.0;
      (* The registry keeps a sample per lookup in arrays that double
         when full; 600k requests before a 20 s window puts the run's
         total mid-way between two doublings at any rate from 23k to
         75k lookups/s, so heap_mb does not flip between runs. *)
      warmup_s = 40.0;
      warmup_ops = 600_000;
      slices = 20;
      slice_reopens = 1;
      slice_checkpoints = 1;
      setups = 1;
      gap_s = 0.2;
      reopens = 3;
    };
    {
      name = "update-rpc";
      entries = 23_000;
      group_commit = true;
      policy = Smalldb.Manual;
      load = Closed_update;
      tail_pct = 90.0;
      (* As on lookup-rpc: 4000 updates before a 20 s window put the
         run's ~21k updates between 2^14 and 2^15 samples at any rate
         from 620 to 1430 updates/s. *)
      warmup_s = 20.0;
      warmup_ops = 4000;
      slices = 10;
      slice_reopens = 2;
      slice_checkpoints = 2;
      setups = 1;
      gap_s = 0.2;
      reopens = 3;
    };
    {
      name = "ckpt-restart";
      entries = 200_000;
      group_commit = false;
      policy = Smalldb.Log_bytes_exceeds 8000;
      load = Open_mixed 270.0;
      tail_pct = 99.0;
      warmup_s = 1.0;
      warmup_ops = 0;
      slices = 10;
      slice_reopens = 1;
      slice_checkpoints = 0;
      setups = 4;
      gap_s = 0.4;
      reopens = 3;
    };
  ]

let workload name = List.find_opt (fun w -> w.name = name) workloads

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let div a b = if b = 0.0 then 0.0 else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

let percentile h p =
  match Histogram.percentile_opt h p with Some v -> v | None -> 0.0

(* ------------------------------------------------------------------ *)
(* The control protocol: a line of space-separated key=value fields.   *)

let fields_to_line l =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)

let line_to_fields line =
  String.split_on_char ' ' line
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
         | None -> None)

let fnum v = Printf.sprintf "%.17g" v
let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> failwith ("control reply lacks field " ^ k)

let ffield fields k = float_of_string (field fields k)
let ifield fields k = int_of_string (field fields k)

(* A list of floats as one field value. *)
let floats_to_string l = String.concat "," (List.map fnum l)

let floats_of_string = function
  | "" -> []
  | s -> List.map float_of_string (String.split_on_char ',' s)
