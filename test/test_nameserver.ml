module Mem = Sdb_storage.Mem_fs
module Path = Sdb_nameserver.Name_path
module Data = Sdb_nameserver.Ns_data
module Ns = Sdb_nameserver.Nameserver

let check = Alcotest.check

let path_testable = Alcotest.(list string)
let tree_testable = Alcotest.testable Data.pp_tree Data.equal_tree

let mem_ns ?config () =
  let store = Mem.create_store ~seed:31 () in
  let fs = Mem.fs store in
  (store, fs, Ns.open_exn ?config fs)

let p s = match Path.of_string s with Ok p -> p | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Paths                                                                *)

let test_path_parsing () =
  check path_testable "root" [] (p "/");
  check path_testable "simple" [ "a" ] (p "/a");
  check path_testable "nested" [ "a"; "b"; "c" ] (p "/a/b/c");
  check path_testable "no leading slash" [ "a"; "b" ] (p "a/b");
  check path_testable "trailing slash" [ "a" ] (p "a/");
  check path_testable "collapsed slashes" [ "a"; "b" ] (p "a//b");
  check Alcotest.string "to_string root" "/" (Path.to_string []);
  check Alcotest.string "to_string" "/a/b" (Path.to_string [ "a"; "b" ]);
  check Alcotest.bool "roundtrip" true (p "/x/y/z" = p (Path.to_string (p "/x/y/z")))

let test_path_operations () =
  check (Alcotest.option path_testable) "parent" (Some [ "a" ]) (Path.parent [ "a"; "b" ]);
  check (Alcotest.option path_testable) "parent of top" (Some []) (Path.parent [ "a" ]);
  check (Alcotest.option path_testable) "parent of root" None (Path.parent [])

(* ------------------------------------------------------------------ *)
(* Pure data operations                                                 *)

let test_data_ops () =
  let root = Data.pensure Data.empty_pnode [ "a"; "b" ] in
  Alcotest.check Alcotest.bool "created" true (Data.pmem root [ "a"; "b" ]);
  Alcotest.check Alcotest.bool "intermediate" true (Data.pmem root [ "a" ]);
  let before = root in
  let root = Data.pset_value root [ "a"; "b" ] (Some "v") in
  (match Data.pfind root [ "a"; "b" ] with
  | Some n -> check (Alcotest.option Alcotest.string) "value" (Some "v") n.Data.pvalue
  | None -> Alcotest.fail "node lost");
  (match Data.pfind before [ "a"; "b" ] with
  | Some n -> check (Alcotest.option Alcotest.string) "old version intact" None n.Data.pvalue
  | None -> Alcotest.fail "old version lost its node");
  check Alcotest.int "count" 3 (Data.pcount_nodes root);
  check Alcotest.int "weight" 3 (Data.pweight_bytes root);
  (* graft *)
  let subtree = Data.tree ~value:"sub" [ ("x", Data.leaf (Some "1")); ("y", Data.leaf None) ] in
  let root = Data.pgraft root [ "a"; "c" ] subtree in
  check (Alcotest.option tree_testable) "grafted" (Some subtree)
    (Option.map (fun n -> Data.psnapshot n) (Data.pfind root [ "a"; "c" ]));
  check Alcotest.(list string) "labels sorted" [ "b"; "c" ]
    (Option.fold ~none:[] ~some:Data.pchildren_labels (Data.pfind root [ "a" ]));
  check
    Alcotest.(list (pair (list string) (option string)))
    "bindings in order"
    [
      ([ "a" ], None);
      ([ "a"; "b" ], Some "v");
      ([ "a"; "c" ], Some "sub");
      ([ "a"; "c"; "x" ], Some "1");
      ([ "a"; "c"; "y" ], None);
    ]
    (List.rev (Data.pfold_bindings root ~init:[] ~f:(fun acc p v -> (p, v) :: acc)));
  check Alcotest.int "pruned"
    2
    (Data.pfold_bindings root
       ~prune:(fun p -> p <> [ "a"; "c" ])
       ~init:0
       ~f:(fun n _ _ -> n + 1));
  (* delete *)
  let root = Data.pdelete_subtree root [ "a"; "b" ] in
  Alcotest.check Alcotest.bool "deleted" false (Data.pmem root [ "a"; "b" ]);
  let same = Data.pdelete_subtree root [ "missing"; "path" ] in
  Alcotest.check Alcotest.bool "absent path is a no-op" false (Data.pmem same [ "missing" ]);
  (* root delete clears *)
  check Alcotest.int "cleared" 1 (Data.pcount_nodes (Data.pdelete_subtree root []))

let test_snapshot_depth () =
  let root = Data.pset_value Data.empty_pnode [ "a"; "b"; "c" ] (Some "deep") in
  let full = Data.psnapshot root in
  let (Data.Tree t) = full in
  check Alcotest.int "full depth children" 1 (List.length t.tchildren);
  let shallow = Data.psnapshot ~depth:1 root in
  let (Data.Tree s) = shallow in
  (match s.tchildren with
  | [ ("a", Data.Tree a) ] -> check Alcotest.int "depth cut" 0 (List.length a.tchildren)
  | _ -> Alcotest.fail "expected single child");
  let zero = Data.psnapshot ~depth:0 root in
  let (Data.Tree z) = zero in
  check Alcotest.int "depth 0" 0 (List.length z.tchildren)

let test_materialize_roundtrip () =
  let tree =
    Data.tree ~value:"r"
      [
        ("b", Data.leaf (Some "2"));
        ("a", Data.tree [ ("z", Data.leaf None) ]);
      ]
  in
  let node = Data.pof_tree tree in
  check tree_testable "pof_tree/psnapshot" tree (Data.psnapshot node);
  (* Built in another order, the same store pickles to the same bytes. *)
  let rebuilt =
    Data.pgraft
      (Data.pset_value (Data.pset_value Data.empty_pnode [] (Some "r")) [ "a"; "z" ] None)
      [ "b" ] (Data.leaf (Some "2"))
  in
  let pickle = Sdb_pickle.Pickle.to_string Data.codec_pnode in
  check Alcotest.string "canonical pickle" (pickle node) (pickle rebuilt)

(* ------------------------------------------------------------------ *)
(* The served database                                                  *)

let test_ns_basic () =
  let _, _, ns = mem_ns () in
  Ns.set_value ns (p "/hosts/alpha") (Some "10.0.0.1");
  Ns.set_value ns (p "/hosts/beta") (Some "10.0.0.2");
  Ns.set_value ns (p "/users/adb") (Some "Andrew Birrell");
  check (Alcotest.option Alcotest.string) "lookup" (Some "10.0.0.1")
    (Ns.lookup ns (p "/hosts/alpha"));
  check (Alcotest.option Alcotest.string) "absent" None (Ns.lookup ns (p "/hosts/gamma"));
  check Alcotest.bool "exists" true (Ns.exists ns (p "/hosts"));
  check
    (Alcotest.option (Alcotest.list Alcotest.string))
    "children" (Some [ "alpha"; "beta" ])
    (Ns.list_children ns (p "/hosts"));
  check
    (Alcotest.option (Alcotest.list Alcotest.string))
    "children of absent" None
    (Ns.list_children ns (p "/nothing"));
  check Alcotest.int "count" 6 (Ns.count_nodes ns);
  (* export/browse *)
  (match Ns.export ns (p "/hosts") with
  | Some (Data.Tree t) -> check Alcotest.int "two hosts" 2 (List.length t.tchildren)
  | None -> Alcotest.fail "export failed");
  (* unbind a value without deleting the node *)
  Ns.set_value ns (p "/hosts/alpha") None;
  check (Alcotest.option Alcotest.string) "unbound" None (Ns.lookup ns (p "/hosts/alpha"));
  check Alcotest.bool "node remains" true (Ns.exists ns (p "/hosts/alpha"))

let test_ns_subtree_updates () =
  let _, _, ns = mem_ns () in
  let subtree =
    Data.tree
      [
        ("printers", Data.tree [ ("lw1", Data.leaf (Some "bldg-5")) ]);
        ("servers", Data.leaf None);
      ]
  in
  Ns.write_subtree ns (p "/equip") subtree;
  check (Alcotest.option Alcotest.string) "deep value" (Some "bldg-5")
    (Ns.lookup ns (p "/equip/printers/lw1"));
  (* Replacing a subtree discards what was there. *)
  Ns.write_subtree ns (p "/equip") (Data.leaf (Some "gone"));
  check Alcotest.bool "old gone" false (Ns.exists ns (p "/equip/printers"));
  check (Alcotest.option Alcotest.string) "new value" (Some "gone")
    (Ns.lookup ns (p "/equip"));
  Ns.create ns (p "/x/y");
  check Alcotest.bool "created" true (Ns.exists ns (p "/x/y"));
  Ns.delete_subtree ns (p "/x");
  check Alcotest.bool "deleted" false (Ns.exists ns (p "/x"))

let test_ns_checked_updates () =
  let _, _, ns = mem_ns () in
  (match Ns.set_value_checked ns (p "/a/b") (Some "v") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "parent missing, should fail");
  Ns.create ns (p "/a");
  (match Ns.set_value_checked ns (p "/a/b") (Some "v") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Ns.delete_subtree_checked ns (p "/zzz") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "delete of absent should fail");
  match Ns.delete_subtree_checked ns (p "/a/b") with
  | Ok () -> check Alcotest.bool "gone" false (Ns.exists ns (p "/a/b"))
  | Error e -> Alcotest.fail e

let test_ns_compare_and_set () =
  let _, _, ns = mem_ns () in
  Ns.set_value ns (p "/lock") (Some "v1");
  (match Ns.compare_and_set ns (p "/lock") ~expected:(Some "v1") (Some "v2") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Ns.compare_and_set ns (p "/lock") ~expected:(Some "v1") (Some "v3") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "stale CAS succeeded");
  check (Alcotest.option Alcotest.string) "value" (Some "v2") (Ns.lookup ns (p "/lock"));
  (* CAS on an unbound name. *)
  match Ns.compare_and_set ns (p "/fresh") ~expected:None (Some "init") with
  | Ok () -> check (Alcotest.option Alcotest.string) "initialized" (Some "init")
               (Ns.lookup ns (p "/fresh"))
  | Error e -> Alcotest.fail e

let test_ns_persistence () =
  let _, fs, ns = mem_ns () in
  Ns.set_value ns (p "/a/b") (Some "1");
  Ns.set_value ns (p "/c") (Some "2");
  Ns.checkpoint ns;
  Ns.set_value ns (p "/a/d") (Some "3");
  Ns.delete_subtree ns (p "/c");
  Ns.close ns;
  let ns2 = Ns.open_exn fs in
  check (Alcotest.option Alcotest.string) "b" (Some "1") (Ns.lookup ns2 (p "/a/b"));
  check (Alcotest.option Alcotest.string) "d" (Some "3") (Ns.lookup ns2 (p "/a/d"));
  check Alcotest.bool "c deleted" false (Ns.exists ns2 (p "/c"));
  check Alcotest.int "replayed" 2 (Ns.stats ns2).Smalldb.recovery.Smalldb.replayed

let test_ns_snapshot_and_updates_since () =
  let _, _, ns = mem_ns () in
  Ns.set_value ns (p "/a") (Some "1");
  Ns.set_value ns (p "/b") (Some "2");
  let tree, lsn = Ns.snapshot_with_lsn ns in
  check Alcotest.int "lsn" 2 lsn;
  let node = Data.pof_tree tree in
  Alcotest.check Alcotest.bool "snapshot content" true (Data.pmem node [ "a" ]);
  (match Ns.updates_since ns 0 with
  | Some l -> check Alcotest.int "all updates" 2 (List.length l)
  | None -> Alcotest.fail "log should cover 0");
  Ns.checkpoint ns;
  match Ns.updates_since ns 0 with
  | None -> ()
  | Some _ -> Alcotest.fail "checkpoint absorbed the log"

let test_ns_audit () =
  let _, _, ns = mem_ns () in
  Ns.set_value ns (p "/a") (Some "1");
  Ns.delete_subtree ns (p "/a");
  let log = Ns.fold_log ns ~init:[] ~f:(fun acc lsn u -> (lsn, u) :: acc) in
  match List.rev log with
  | [ (0, Ns.Set_value (pa, Some "1")); (1, Ns.Delete_subtree pb) ] ->
    check path_testable "path a" [ "a" ] pa;
    check path_testable "path b" [ "a" ] pb
  | _ -> Alcotest.fail "unexpected audit trail"

(* ------------------------------------------------------------------ *)
(* Enumeration and glob search                                          *)

module Glob = Sdb_nameserver.Name_glob

let glob s = match Glob.compile s with Ok g -> g | Error e -> Alcotest.fail e

let test_component_matching () =
  let yes pat s =
    Alcotest.check Alcotest.bool (pat ^ " ~ " ^ s) true
      (Glob.matches (glob ("/" ^ pat)) [ s ])
  in
  let no pat s =
    Alcotest.check Alcotest.bool (pat ^ " !~ " ^ s) false
      (Glob.matches (glob ("/" ^ pat)) [ s ])
  in
  yes "abc" "abc";
  no "abc" "abd";
  no "abc" "ab";
  yes "*" "";
  yes "*" "anything";
  yes "a*" "a";
  yes "a*" "abc";
  no "a*" "ba";
  yes "*c" "abc";
  no "*c" "abd";
  yes "a*c" "abc";
  yes "a*c" "ac";
  yes "a*c" "axxxxc";
  no "a*c" "axxxxd";
  yes "?" "x";
  no "?" "";
  no "?" "xy";
  yes "a?c" "abc";
  no "a?c" "ac";
  yes "*a*b*" "xaxbx";
  no "*a*b*" "xbxax";
  yes "**x**" "yxz";
  yes "a*b*c" "a123b456c";
  no "a*b*c" "a123c456b"

let test_glob_compile () =
  (match Glob.compile "/a/*/c" with
  | Ok g ->
    check Alcotest.bool "depth 3" true (Glob.matches g [ "a"; "b"; "c" ]);
    check Alcotest.bool "not depth 2" false (Glob.matches g [ "a"; "b" ])
  | Error e -> Alcotest.fail e);
  (match Glob.compile "/users/**" with
  | Ok g ->
    check Alcotest.bool "descend" true (Glob.matches g [ "users"; "a"; "b" ])
  | Error e -> Alcotest.fail e);
  match Glob.compile "/a/**/b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "interior ** accepted"

let test_glob_matches () =
  let g = glob "/hosts/*/addr" in
  Alcotest.check Alcotest.bool "match" true (Glob.matches g [ "hosts"; "x"; "addr" ]);
  Alcotest.check Alcotest.bool "wrong leaf" false (Glob.matches g [ "hosts"; "x"; "port" ]);
  Alcotest.check Alcotest.bool "too shallow" false (Glob.matches g [ "hosts"; "x" ]);
  Alcotest.check Alcotest.bool "too deep" false
    (Glob.matches g [ "hosts"; "x"; "addr"; "v4" ]);
  let d = glob "/users/**" in
  Alcotest.check Alcotest.bool "descend shallow" true (Glob.matches d [ "users"; "a" ]);
  Alcotest.check Alcotest.bool "descend deep" true
    (Glob.matches d [ "users"; "a"; "b"; "c" ]);
  Alcotest.check Alcotest.bool "descend not prefix" false (Glob.matches d [ "users" ]);
  Alcotest.check Alcotest.bool "other tree" false (Glob.matches d [ "hosts"; "a" ]);
  (* Viability pruning. *)
  Alcotest.check Alcotest.bool "viable prefix" true (Glob.prefix_viable g [ "hosts" ]);
  Alcotest.check Alcotest.bool "nonviable prefix" false (Glob.prefix_viable g [ "users" ])

let populated_ns () =
  let _, _, ns = mem_ns () in
  Ns.set_value ns (p "/hosts/acacia/addr") (Some "16.9.0.11");
  Ns.set_value ns (p "/hosts/acacia/os") (Some "ultrix");
  Ns.set_value ns (p "/hosts/buckeye/addr") (Some "16.9.0.12");
  Ns.set_value ns (p "/users/adb/office") (Some "210");
  Ns.set_value ns (p "/users/mbj/office") (Some "cmu");
  ns

let test_enumerate () =
  let ns = populated_ns () in
  let all = Ns.enumerate ns [] in
  check Alcotest.int "all nodes" 11 (List.length all);
  let hosts = Ns.enumerate ns (p "/hosts") in
  check
    Alcotest.(list (pair path_testable (option string)))
    "hosts subtree"
    [
      (p "/hosts/acacia", None);
      (p "/hosts/acacia/addr", Some "16.9.0.11");
      (p "/hosts/acacia/os", Some "ultrix");
      (p "/hosts/buckeye", None);
      (p "/hosts/buckeye/addr", Some "16.9.0.12");
    ]
    hosts;
  check Alcotest.int "absent prefix" 0 (List.length (Ns.enumerate ns (p "/zzz")))

let test_find () =
  let ns = populated_ns () in
  let addrs = Ns.find ns (glob "/hosts/*/addr") in
  check
    Alcotest.(list (pair path_testable (option string)))
    "all addrs"
    [
      (p "/hosts/acacia/addr", Some "16.9.0.11");
      (p "/hosts/buckeye/addr", Some "16.9.0.12");
    ]
    addrs;
  let a_hosts = Ns.find ns (glob "/hosts/a*") in
  check Alcotest.int "a-hosts" 1 (List.length a_hosts);
  let under_users = Ns.find ns (glob "/users/**") in
  check Alcotest.int "everything under users" 4 (List.length under_users);
  check Alcotest.int "no match" 0 (List.length (Ns.find ns (glob "/printers/*")))

(* The pruned search agrees with brute-force filtering on random trees. *)
let gen_glob_path =
  QCheck2.Gen.(list_size (0 -- 3) (map (fun i -> Printf.sprintf "n%d" i) (0 -- 3)))

let prop_find_equals_filter =
  Helpers.qtest ~count:60 "find = enumerate + filter"
    QCheck2.Gen.(
      pair
        (list_size (0 -- 20) gen_glob_path)
        (list_size (1 -- 3) (oneofl [ "n0"; "n1"; "*"; "n?"; "**" ])))
    (fun (paths, pattern_parts) ->
      (* ** only allowed last: move it. *)
      let parts =
        let non_star, star = List.partition (fun c -> c <> "**") pattern_parts in
        non_star @ (if star = [] then [] else [ "**" ])
      in
      if parts = [] then true
      else
        match Glob.compile ("/" ^ String.concat "/" parts) with
        | Error _ -> true
        | Ok g ->
          let _, _, ns = mem_ns () in
          List.iteri
            (fun i path ->
              if path <> [] then Ns.set_value ns path (Some (string_of_int i)))
            paths;
          let found = Ns.find ns g in
          let brute =
            List.filter (fun (path, _) -> Glob.matches g path) (Ns.enumerate ns [])
          in
          found = brute)

(* ------------------------------------------------------------------ *)
(* Model-based property test                                            *)

(* Reference model: a Map from path to value-option. The name server
   semantics: intermediate nodes exist as unbound names. *)
module PathMap = Map.Make (struct
  type t = string list

  let compare = List.compare String.compare
end)

type model = string option PathMap.t

let rec is_prefix ~prefix p =
  match (prefix, p) with
  | [], _ -> true
  | _, [] -> false
  | a :: prefix, b :: p -> String.equal a b && is_prefix ~prefix p

let model_add_intermediates path (m : model) =
  let rec go prefix m = function
    | [] -> m
    | c :: rest ->
      let prefix = prefix @ [ c ] in
      let m =
        if PathMap.mem prefix m then m else PathMap.add prefix None m
      in
      go prefix m rest
  in
  go [] m path

let model_empty : model = PathMap.singleton [] None

let model_apply (m : model) (u : Ns.update) : model =
  match u with
  | Ns.Set_value (path, v) ->
    model_add_intermediates path m |> PathMap.add path v
  | Ns.Create path -> model_add_intermediates path m
  | Ns.Delete_subtree [] -> model_empty
  | Ns.Delete_subtree path ->
    PathMap.filter (fun k _ -> not (is_prefix ~prefix:path k)) m
  | Ns.Write_subtree (path, tree) ->
    let m = model_add_intermediates path m in
    let m = PathMap.filter (fun k _ -> not (is_prefix ~prefix:path k)) m in
    let rec add prefix (Data.Tree t) m =
      let m = PathMap.add prefix t.tvalue m in
      List.fold_left (fun m (label, sub) -> add (prefix @ [ label ]) sub m) m
        t.tchildren
    in
    add path tree m

let gen_component = QCheck2.Gen.(map (fun i -> Printf.sprintf "n%d" i) (0 -- 3))
let gen_path = QCheck2.Gen.(list_size (0 -- 3) gen_component)

let gen_tree_small =
  QCheck2.Gen.(
    sized_size (0 -- 3)
    @@ fix (fun self n ->
           let value = option (map string_of_int (0 -- 99)) in
           if n = 0 then map (fun v -> Data.leaf v) value
           else
             map2
               (fun v children ->
                 (* Distinct labels required. *)
                 let labeled =
                   List.mapi (fun i c -> (Printf.sprintf "c%d" i, c)) children
                 in
                 Data.Tree { tvalue = v; tchildren = labeled })
               value
               (list_size (0 -- 3) (self (n / 2)))))

let gen_update =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun path v -> Ns.Set_value (path, v)) gen_path
          (option (map string_of_int (0 -- 99)));
        map (fun path -> Ns.Create path) gen_path;
        map (fun path -> Ns.Delete_subtree path) gen_path;
        map2 (fun path t -> Ns.Write_subtree (path, t)) gen_path gen_tree_small;
      ])

let model_of_ns ns : model =
  let tree, _ = Ns.snapshot_with_lsn ns in
  let rec add prefix (Data.Tree t) m =
    let m = PathMap.add prefix t.tvalue m in
    List.fold_left (fun m (label, sub) -> add (prefix @ [ label ]) sub m) m
      t.tchildren
  in
  add [] tree PathMap.empty

let prop_model =
  Helpers.qtest ~count:100 "name server matches reference model"
    QCheck2.Gen.(list_size (0 -- 25) gen_update)
    (fun updates ->
      let _, _, ns = mem_ns () in
      let model =
        List.fold_left
          (fun m u ->
            Ns.Db.update (Ns.db ns) u;
            model_apply m u)
          model_empty updates
      in
      let actual = model_of_ns ns in
      let normalize m = PathMap.bindings m in
      normalize model = normalize actual)

let prop_model_survives_restart =
  Helpers.qtest ~count:50 "model equivalence after restart"
    QCheck2.Gen.(list_size (0 -- 15) gen_update)
    (fun updates ->
      let store = Mem.create_store ~seed:8 () in
      let fs = Mem.fs store in
      let ns = Ns.open_exn fs in
      List.iter (fun u -> Ns.Db.update (Ns.db ns) u) updates;
      let before = model_of_ns ns in
      Ns.close ns;
      let ns2 = Ns.open_exn fs in
      let after = model_of_ns ns2 in
      PathMap.bindings before = PathMap.bindings after)

let () =
  Helpers.run "nameserver"
    [
      ( "paths",
        [
          Alcotest.test_case "parsing" `Quick test_path_parsing;
          Alcotest.test_case "operations" `Quick test_path_operations;
        ] );
      ( "data",
        [
          Alcotest.test_case "tree ops" `Quick test_data_ops;
          Alcotest.test_case "snapshot depth" `Quick test_snapshot_depth;
          Alcotest.test_case "materialize roundtrip" `Quick test_materialize_roundtrip;
        ] );
      ( "server",
        [
          Alcotest.test_case "basic operations" `Quick test_ns_basic;
          Alcotest.test_case "subtree updates" `Quick test_ns_subtree_updates;
          Alcotest.test_case "checked updates" `Quick test_ns_checked_updates;
          Alcotest.test_case "compare and set" `Quick test_ns_compare_and_set;
          Alcotest.test_case "persistence" `Quick test_ns_persistence;
          Alcotest.test_case "snapshot and updates_since" `Quick
            test_ns_snapshot_and_updates_since;
          Alcotest.test_case "audit trail" `Quick test_ns_audit;
        ] );
      ( "search",
        [
          Alcotest.test_case "component matching" `Quick test_component_matching;
          Alcotest.test_case "glob compile" `Quick test_glob_compile;
          Alcotest.test_case "glob matches" `Quick test_glob_matches;
          Alcotest.test_case "enumerate" `Quick test_enumerate;
          Alcotest.test_case "find" `Quick test_find;
          prop_find_equals_filter;
        ] );
      ( "properties", [ prop_model; prop_model_survives_restart ] );
    ]
