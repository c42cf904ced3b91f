(* The static-check CLI: the CI gate over the tree's .cmt files.

   Usage:
     sdb_modecheck [BUILD_DIR]    check the lib/ and bin/ units under
                                  BUILD_DIR (default: _build/default,
                                  located by walking up to the
                                  dune-project root); bench/, examples/,
                                  perfbench/ and test/ are read as
                                  references for dead-export
     sdb_modecheck --lockdep ...  also print the derived lock-order edges
     sdb_modecheck --rules        list the rules

   Build with `dune build @check` first: `@all` emits no .cmt for
   executable modules that have an .mli.

   Exit status: 0 = clean, 1 = findings, 2 = usage or internal error.
   Findings print one per line as file:line:col: [rule] message. *)

let usage () =
  prerr_endline "usage: sdb_modecheck [--rules | --lockdep] [BUILD_DIR]";
  exit 2

(* Walk up from the cwd to the dune-project root so the tool works from
   any subdirectory of the repo. *)
let default_build_dir () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then
      Some (Filename.concat (Filename.concat dir "_build") "default")
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let check ~lockdep build_dir =
  let r =
    try Sdb_modecheck.analyze_tree build_dir
    with Invalid_argument msg ->
      Printf.eprintf "sdb_modecheck: %s\n" msg;
      exit 2
  in
  if lockdep then
    List.iter (fun (a, b) -> Printf.printf "%s -> %s\n" a b) r.r_edges;
  List.iter (fun f -> print_endline (Sdb_modecheck.render f)) r.r_findings;
  match r.r_findings with
  | [] ->
      Printf.printf
        "sdb_modecheck: clean (%d functions over %d units, %d lock-order \
         edge%s)\n"
        r.r_functions r.r_units (List.length r.r_edges)
        (if List.length r.r_edges = 1 then "" else "s");
      exit 0
  | fs ->
      Printf.eprintf "sdb_modecheck: %d finding%s\n" (List.length fs)
        (if List.length fs = 1 then "" else "s");
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--rules" ] ->
      List.iter
        (fun (id, desc) -> Printf.printf "%-20s %s\n" id desc)
        Sdb_modecheck.rules
  | args -> (
      let lockdep, rest = List.partition (String.equal "--lockdep") args in
      match rest with
      | [] -> (
          match default_build_dir () with
          | Some dir -> check ~lockdep:(lockdep <> []) dir
          | None ->
              prerr_endline
                "sdb_modecheck: no dune-project root found above the cwd; \
                 pass a build directory";
              exit 2)
      | [ dir ] when String.length dir > 0 && dir.[0] <> '-' ->
          check ~lockdep:(lockdep <> []) dir
      | _ -> usage ())
