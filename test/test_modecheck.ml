(* sdb_modecheck's suite: every rule must fire on its seeded fixture —
   compiled to a real .cmt, so the checker is exercised on genuine
   typedtrees, not synthetic summaries — the built-in self-test must
   pass, the disciplined fixture must stay silent, and the shipped
   tree must check clean with the DESIGN.md §5 lockdep cross-check on. *)

let check = Alcotest.check

(* Tests run from the build context; walk up to the (copied)
   dune-project so the fixture and library .cmt trees resolve whether
   dune launched us from _build/default/test or elsewhere. *)
let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else find_root parent

(* The root may be the build context itself (dune runtest copies
   dune-project into _build/default) or the source root (dune exec from
   the repo top); in the latter case the artifacts sit under
   _build/default. *)
let build_roots () =
  match find_root (Sys.getcwd ()) with
  | None -> []
  | Some root ->
    [ root; List.fold_left Filename.concat root [ "_build"; "default" ] ]

let fixture_cmt name =
  let rel =
    List.fold_left Filename.concat "test"
      [ "modecheck_fixtures"; ".modecheck_fixtures.objs"; "byte";
        "modecheck_fixtures__" ^ name ^ ".cmt" ]
  in
  List.find_opt Sys.file_exists
    (List.map (fun r -> Filename.concat r rel) (build_roots ()))

let rules_of cmt =
  (Sdb_modecheck.analyze ~xcheck:false [ cmt ]).Sdb_modecheck.r_findings
  |> List.map (fun f -> f.Sdb_modecheck.f_rule)
  |> List.sort_uniq compare

(* Each fixture must trip exactly the seeded rules — a fixture that
   also trips something unplanned is a regression in the checker, not
   extra credit. *)
let fixture_cases =
  [
    ("Fx_mode", [ "mode" ]);
    ("Fx_chain", [ "mode" ]);
    ("Fx_iomutex", [ "io-under-mutex"; "unprotected-acquire" ]);
    ("Fx_cycle", [ "lock-order" ]);
    ("Fx_noblock", [ "noblock" ]);
    ("Fx_clean", []);
  ]

let test_fixture (name, expected) () =
  match fixture_cmt name with
  | None -> () (* sandboxed without build-tree access: covered by CI *)
  | Some cmt ->
    check Alcotest.(list string) name (List.sort compare expected) (rules_of cmt)

let test_self_test () =
  match Sdb_modecheck.self_test () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The acceptance bar: the shipped tree checks clean under every rule,
   including the cross-check of the statically derived lock-order DAG
   against the runtime lockdep graph documented in DESIGN.md §5. *)
let test_tree_is_clean () =
  let lib_with_cmts =
    List.find_opt
      (fun lib ->
        Sys.file_exists lib && Sdb_modecheck.walk_cmts [ lib ] <> [])
      (List.map (fun r -> Filename.concat r "lib") (build_roots ()))
  in
  match lib_with_cmts with
  | None -> () (* sandboxed without build-tree access: covered by CI *)
  | Some lib ->
    begin
      let cmts = Sdb_modecheck.walk_cmts [ lib ] in
      check Alcotest.bool "found cmt files" true (cmts <> []);
      let r = Sdb_modecheck.analyze ~xcheck:true cmts in
      List.iter
        (fun f -> Printf.eprintf "%s\n" (Sdb_modecheck.render f))
        r.Sdb_modecheck.r_findings;
      check Alcotest.int "tree findings" 0 (List.length r.r_findings);
      check
        Alcotest.(list (pair string string))
        "static lock-order DAG matches the runtime lockdep graph"
        (List.sort compare Sdb_modecheck.expected_lockdep)
        (List.sort compare r.r_edges)
    end

let () =
  Helpers.run "modecheck"
    [
      ( "fixtures",
        List.map
          (fun (name, _ as case) ->
            Alcotest.test_case name `Quick (test_fixture case))
          fixture_cases );
      ( "gate",
        [
          Alcotest.test_case "self test" `Quick test_self_test;
          Alcotest.test_case "tree is clean" `Quick test_tree_is_clean;
        ] );
    ]
