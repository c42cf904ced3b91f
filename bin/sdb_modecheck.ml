(* The mode/effect-check CLI: the CI gate over the engine's .cmt tree.

   Usage:
     sdb_modecheck [DIR ...]      check .cmt files under the given roots
                                  (default: _build/default/lib, located by
                                  walking up to the dune-project root)
     sdb_modecheck --self-test    drive every rule on synthetic summaries
     sdb_modecheck --rules        list the rules
     sdb_modecheck --lockdep      print the derived lock-order edges
     sdb_modecheck --summaries    dump the per-function summaries
     sdb_modecheck --no-xcheck    skip the DESIGN.md §5 lockdep cross-check
     sdb_modecheck --file F.cmt ... check specific files (xcheck off)

   Exit status: 0 = clean, 1 = findings, 2 = usage or internal error —
   the same convention as sdb_lint.  Findings print one per line as
   file:line:col: [rule] message. *)

let usage () =
  prerr_endline
    "usage: sdb_modecheck [--self-test | --rules | --lockdep | --summaries \
     | --no-xcheck | --file F.cmt ... | DIR ...]";
  exit 2

(* Walk up from the cwd to the dune-project root so the tool works from
   any subdirectory of the repo. *)
let default_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  match up (Sys.getcwd ()) with
  | Some root ->
      let p = Filename.concat (Filename.concat root "_build") "default" in
      Some (Filename.concat p "lib")
  | None -> None

let mode_opt = function
  | Some m -> Sdb_modecheck.mode_name m
  | None -> "-"

let dump_summaries (r : Sdb_modecheck.report) =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) r.r_summaries [] in
  List.iter
    (fun id ->
      let s = Hashtbl.find r.r_summaries id in
      Printf.printf
        "%s\n  requires=%s acquires=%s noblock=%b\n  \
         may_block=%s acq_modes=[%s] mus=[%s] calls=%d\n"
        s.Sdb_modecheck.s_id
        (mode_opt s.s_contract.c_requires)
        (mode_opt s.s_contract.c_acquires)
        s.s_contract.c_noblock
        (match s.x_blocks with Some w -> w | None -> "-")
        (String.concat ","
           (List.map Sdb_modecheck.mode_name s.x_acq_modes))
        (String.concat "," (List.map fst s.x_mus))
        (List.length s.s_calls))
    (List.sort compare ids)

let check ~xcheck ~lockdep ~summaries files =
  let r = Sdb_modecheck.analyze ~xcheck files in
  if summaries then dump_summaries r;
  if lockdep then
    List.iter
      (fun (a, b) -> Printf.printf "%s -> %s\n" a b)
      r.Sdb_modecheck.r_edges;
  List.iter
    (fun f -> print_endline (Sdb_modecheck.render f))
    r.Sdb_modecheck.r_findings;
  if r.r_findings = [] then begin
    Printf.printf
      "sdb_modecheck: clean (%d functions over %d units, %d lock-order \
       edge%s)\n"
      r.r_functions r.r_units
      (List.length r.r_edges)
      (if List.length r.r_edges = 1 then "" else "s");
    exit 0
  end
  else begin
    Printf.eprintf "sdb_modecheck: %d finding%s\n"
      (List.length r.r_findings)
      (if List.length r.r_findings = 1 then "" else "s");
    exit 1
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--help" args || List.mem "-h" args then usage ();
  if args = [ "--rules" ] then begin
    List.iter
      (fun (id, desc) -> Printf.printf "%-20s %s\n" id desc)
      Sdb_modecheck.rules;
    exit 0
  end;
  if args = [ "--self-test" ] then begin
    match Sdb_modecheck.self_test () with
    | Ok () ->
        Printf.printf "sdb_modecheck self-test: ok (rules: %s)\n"
          (String.concat ", " (List.map fst Sdb_modecheck.rules));
        exit 0
    | Error msg ->
        Printf.eprintf "sdb_modecheck self-test FAILED: %s\n" msg;
        exit 1
  end;
  let flags, rest =
    List.partition (fun a -> String.length a > 0 && a.[0] = '-') args
  in
  let lockdep = List.mem "--lockdep" flags in
  let summaries = List.mem "--summaries" flags in
  let no_xcheck = List.mem "--no-xcheck" flags in
  let file_mode = List.mem "--file" flags in
  let unknown =
    List.filter
      (fun f ->
        not
          (List.mem f
             [ "--lockdep"; "--summaries"; "--no-xcheck"; "--file" ]))
      flags
  in
  if unknown <> [] then usage ();
  if file_mode then begin
    if rest = [] then usage ();
    check ~xcheck:false ~lockdep ~summaries rest
  end
  else begin
    let roots =
      if rest <> [] then rest
      else
        match default_root () with
        | Some r -> [ r ]
        | None ->
            prerr_endline
              "sdb_modecheck: no dune-project root found above the cwd; \
               pass a directory of .cmt files";
            exit 2
    in
    let missing = List.filter (fun d -> not (Sys.file_exists d)) roots in
    if missing <> [] then begin
      List.iter
        (Printf.eprintf
           "sdb_modecheck: no such directory: %s (run `dune build` first?)\n")
        missing;
      exit 2
    end;
    let files = Sdb_modecheck.walk_cmts roots in
    if files = [] then begin
      Printf.eprintf
        "sdb_modecheck: no .cmt files under %s (run `dune build` first)\n"
        (String.concat " " roots);
      exit 2
    end;
    check ~xcheck:(not no_xcheck) ~lockdep ~summaries files
  end
