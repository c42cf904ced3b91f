(* nsbench drive  --workload W --seed N --seconds S --trace 0|1 [--rev R] [--nproc N]
   nsbench server --workload W --socket P --trace 0|1 --spans FILE

   "drive" is the load generator and starts "server" as a child
   process; perfbench/run.py builds this program and runs "drive". *)

let usage () =
  prerr_endline
    "usage: nsbench drive --workload W --seed N --seconds S --trace 0|1 [--rev R] [--nproc N]\n\
    \       nsbench server --workload W --socket P --trace 0|1 --spans FILE";
  exit 2

let rec pairs = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
    (String.sub k 2 (String.length k - 2), v) :: pairs rest
  | [] -> []
  | _ -> usage ()

let get args k = match List.assoc_opt k args with Some v -> v | None -> usage ()
let get_or args k d = Option.value ~default:d (List.assoc_opt k args)

let int_arg args k = match int_of_string_opt (get args k) with Some n -> n | None -> usage ()

let trace_arg args =
  match get args "trace" with "0" -> false | "1" -> true | _ -> usage ()

let workload_arg args =
  match Common.workload (get args "workload") with
  | Some w -> w
  | None ->
    prerr_endline ("unknown workload " ^ get args "workload");
    exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "drive" :: rest ->
    let a = pairs rest in
    Load.main
      {
        Load.w = workload_arg a;
        seed = int_arg a "seed";
        seconds = (match float_of_string_opt (get a "seconds") with Some s when s > 0.0 -> s | _ -> usage ());
        traced = trace_arg a;
        rev = get_or a "rev" "unknown";
        nproc = (match int_of_string_opt (get_or a "nproc" "0") with Some n -> n | None -> 0);
      }
  | _ :: "server" :: rest ->
    let a = pairs rest in
    Server.main
      { Server.w = workload_arg a; socket = get a "socket"; traced = trace_arg a; spans_file = get a "spans" }
  | _ -> usage ()
