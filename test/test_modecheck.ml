(* sdb_modecheck's suite.  Every rule must fire on its seeded fixture —
   compiled to a real .cmt, so the checker runs on genuine typedtrees —
   exactly as seeded and nothing more, and stay silent on its waived or
   disciplined twin; rules scoped by source path are checked on both
   sides of their scope.  The shipped tree must check clean with the
   DESIGN.md §5 lockdep cross-check on.  The fixture and tree .cmt files
   are deps of this test (test/dune), so a missing one is a failure. *)

let check = Alcotest.check

(* Tests run from the build context (dune runtest copies dune-project
   into _build/default) or from the source root (dune exec); either
   way, find the directory the .cmt trees sit under. *)
let build_dir () =
  let rec find_root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else find_root parent
  in
  match find_root (Sys.getcwd ()) with
  | None -> Alcotest.fail "no dune-project above the working directory"
  | Some root ->
    let nested = List.fold_left Filename.concat root [ "_build"; "default" ] in
    if Sys.file_exists (Filename.concat nested "lib") then nested else root

(* The .cmt (and .cmti, when the fixture has an interface) of one
   fixture unit; "" names the library's wrapper, through which one
   fixture refers to another. *)
let unit_files name =
  let base =
    List.fold_left Filename.concat (build_dir ())
      [ "test"; "modecheck_fixtures"; ".modecheck_fixtures.objs"; "byte";
        (if name = "" then "modecheck_fixtures"
         else "modecheck_fixtures__" ^ name) ]
  in
  if not (Sys.file_exists (base ^ ".cmt")) then
    Alcotest.failf "missing %s.cmt" base;
  (base ^ ".cmt") :: List.filter Sys.file_exists [ base ^ ".cmti" ]

let findings ?(xcheck = false) ?(refs = []) name =
  (Sdb_modecheck.analyze ~xcheck
     ~refs:(List.concat_map unit_files refs)
     (unit_files name))
    .Sdb_modecheck.r_findings

let rules_of fs =
  List.sort_uniq compare (List.map (fun f -> f.Sdb_modecheck.f_rule) fs)

(* A fixture trips exactly the seeded rules — one that also trips
   something unplanned is a regression in the checker, not extra
   credit. *)
let expect ?xcheck ?refs name rules =
  check Alcotest.(list string) name (List.sort compare rules)
    (rules_of (findings ?xcheck ?refs name))

let count name rule n =
  check Alcotest.int
    (Printf.sprintf "%s: %s findings" name rule)
    n
    (List.length
       (List.filter (fun f -> f.Sdb_modecheck.f_rule = rule) (findings name)))

(* The interprocedural rules: one seeded fixture and one twin each. *)
let fixture_cases =
  [
    ("Fx_mode", [ "mode" ], false);
    ("Fx_chain", [ "mode" ], false);
    ("Fx_mode_ok", [], false);
    ("Fx_deadlock", [ "deadlock" ], false);
    ("Fx_deadlock_ok", [], false);
    ("Fx_noblock", [ "noblock" ], false);
    ("Fx_noblock_ok", [], false);
    ("Fx_iomutex", [ "io-under-mutex"; "unprotected-acquire" ], false);
    ("Fx_iomutex_ok", [], false);
    ("Fx_unprotected", [ "unprotected-acquire" ], false);
    ("Fx_unprotected_ok", [], false);
    ("Fx_cycle", [ "lock-order" ], false);
    ("Fx_trylock", [ "lock-order" ], false);
    ("Fx_trylock_ok", [], false);
    ("Fx_lockdep", [ "lockdep-xcheck" ], true);
    ("Fx_lockdep_ok", [], true);
    ("Fx_attr", [ "attr" ], false);
    ("Fx_clean", [], false);
  ]

(* The per-unit rules, each with its waived twin and, for the rules
   scoped by source path, a fixture on the other side of the scope. *)
let test_unix_io () =
  expect "Fx_unix_io" [ "unix-io" ];
  count "Fx_unix_io" "unix-io" 2;
  expect "Fx_unix_io_ok" [];
  expect "Fx_storage_io" []

let test_mutex_pairing () =
  expect "Fx_unpaired" [ "mutex-pairing" ];
  count "Fx_unpaired" "mutex-pairing" 3;
  expect "Fx_unpaired_ok" []

let test_print_in_lib () =
  expect "Fx_print" [ "print-in-lib" ];
  count "Fx_print" "print-in-lib" 2;
  expect "Fx_print_ok" [];
  expect "Fx_outside_lib" []

let test_global_mutable () =
  expect "Fx_global" [ "global-mutable" ];
  expect "Fx_global_ok" [];
  expect "Fx_outside_lib" []

let test_swallow () =
  expect "Fx_swallow" [ "swallow" ];
  count "Fx_swallow" "swallow" 2;
  expect "Fx_swallow_ok" [];
  expect "Fx_outside_lib" []

let test_dead_export () =
  expect ~refs:[ ""; "Fx_dead_user" ] "Fx_dead" [ "dead-export" ];
  (match findings ~refs:[ ""; "Fx_dead_user" ] "Fx_dead" with
  | [ f ] ->
    check Alcotest.bool "a test reference does not count" true
      (Helpers.contains ~needle:"only test/ references it" f.f_message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  expect "Fx_dead_ok" [];
  expect "Fx_outside_lib" []

let test_render () =
  match findings "Fx_global" with
  | [ f ] ->
    check Alcotest.string "file:line:col: [rule] message"
      (Printf.sprintf "test/modecheck_fixtures/lib/fx_global.ml:4:0: \
                       [global-mutable] %s" f.f_message)
      (Sdb_modecheck.render f)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_read_error () =
  let file = Filename.temp_file "sdb_modecheck" ".cmt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out_bin file in
      output_string oc "not a typedtree";
      close_out oc;
      check Alcotest.(list string) "unreadable .cmt" [ "read-error" ]
        (rules_of (Sdb_modecheck.analyze ~xcheck:false [ file ]).r_findings))

(* The acceptance bar: the lib/ and bin/ units of the shipped tree check
   clean under every rule, including the cross-check of the statically
   derived lock-order DAG against the runtime lockdep graph documented
   in DESIGN.md §5. *)
let test_tree_is_clean () =
  let r = Sdb_modecheck.analyze_tree (build_dir ()) in
  List.iter
    (fun f -> Printf.eprintf "%s\n" (Sdb_modecheck.render f))
    r.r_findings;
  check Alcotest.int "tree findings" 0 (List.length r.r_findings);
  check
    Alcotest.(list (pair string string))
    "static lock-order DAG matches the runtime lockdep graph"
    (List.sort compare Sdb_modecheck.expected_lockdep)
    (List.sort compare r.r_edges)

let () =
  Helpers.run "modecheck"
    [
      ( "fixtures",
        List.map
          (fun (name, rules, xcheck) ->
            Alcotest.test_case name `Quick (fun () -> expect ~xcheck name rules))
          fixture_cases );
      ( "rules",
        [
          Alcotest.test_case "unix-io" `Quick test_unix_io;
          Alcotest.test_case "mutex-pairing" `Quick test_mutex_pairing;
          Alcotest.test_case "print-in-lib" `Quick test_print_in_lib;
          Alcotest.test_case "global-mutable" `Quick test_global_mutable;
          Alcotest.test_case "swallow" `Quick test_swallow;
          Alcotest.test_case "dead-export" `Quick test_dead_export;
          Alcotest.test_case "read-error" `Quick test_read_error;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ( "gate",
        [ Alcotest.test_case "tree is clean" `Quick test_tree_is_clean ] );
    ]
