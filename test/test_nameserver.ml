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
(* The state codec                                                      *)

module P = Sdb_pickle.Pickle

(* What the state pickled to while it went through the exchange tree. *)
let tree_pickle n = P.encode Data.codec_tree (Data.psnapshot n)

let restores_equal what n restored =
  check tree_testable what (Data.psnapshot n) (Data.psnapshot restored)

let check_pnode_codec what n =
  let bytes = P.encode Data.codec_pnode n in
  check Alcotest.string (what ^ ": the exchange tree's bytes") (tree_pickle n) bytes;
  restores_equal (what ^ ": restored") n (P.decode Data.codec_pnode bytes)

let chain depth =
  let rec go d = if d = 0 then Data.leaf (Some "bottom") else Data.tree [ ("x", go (d - 1)) ] in
  Data.pof_tree (go depth)

let fan width =
  Data.pof_tree
    (Data.tree ~value:"root"
       (List.init width (fun i -> (Printf.sprintf "k%05d" i, Data.leaf (Some (string_of_int i))))))

let test_pnode_codec_shapes () =
  check_pnode_codec "empty" Data.empty_pnode;
  check_pnode_codec "deep" (chain 3000);
  check_pnode_codec "wide" (fan 10_000);
  check_pnode_codec "wide under deep"
    (Data.pgraft (chain 50) (List.init 50 (fun _ -> "x")) (Data.psnapshot (fan 777)))

(* Trees whose children may come in any order and repeat a label: the
   raw material of a hand-built pickle. *)
let gen_raw_tree =
  QCheck2.Gen.(
    sized_size (0 -- 12)
    @@ fix (fun self n ->
           map2
             (fun tvalue tchildren -> Data.Tree { tvalue; tchildren })
             (option (string_size ~gen:printable (0 -- 4)))
             (if n = 0 then pure []
              else
                list_size (0 -- 6)
                  (pair (oneofl [ "a"; "b"; "c"; "d"; ""; "b2" ]) (self (n / 3))))))

let prop_pnode_codec_equals_tree =
  Helpers.qtest ~count:300 "state pickle = exchange-tree pickle" gen_raw_tree (fun t ->
      let n = Data.pof_tree t in
      let bytes = P.encode Data.codec_pnode n in
      String.equal bytes (tree_pickle n)
      && Data.equal_tree (Data.psnapshot n)
           (Data.psnapshot (P.decode Data.codec_pnode bytes)))

(* A pickle whose labels are out of order or repeated restores as
   [pof_tree] builds it: in order, the last binding of a label wins. *)
let prop_unsorted_pickle_last_wins =
  Helpers.qtest ~count:300 "unsorted or repeated labels: last wins" gen_raw_tree (fun t ->
      Data.equal_tree
        (Data.psnapshot (Data.pof_tree t))
        (Data.psnapshot (P.decode Data.codec_pnode (P.encode Data.codec_tree t))))

let test_unsorted_pickle_last_wins () =
  let hand_built =
    Data.Tree
      {
        tvalue = None;
        tchildren =
          [ ("b", Data.leaf (Some "1")); ("a", Data.leaf (Some "2")); ("b", Data.leaf (Some "3")) ];
      }
  in
  let n = P.decode Data.codec_pnode (P.encode Data.codec_tree hand_built) in
  check Alcotest.(list string) "labels" [ "a"; "b" ] (Data.pchildren_labels n);
  check Alcotest.(option string) "last b wins" (Some "3")
    (Option.bind (Data.pfind n [ "b" ]) (fun c -> c.Data.pvalue))

(* A store the exchange-tree codec wrote: a checkpoint (generation 1),
   its empty log and the version file, after the updates of
   [golden_updates] and a checkpoint.  The state codec must still open
   it, and write the same checkpoint bytes. *)
let golden_fingerprint = "1577b2f3cf78b74b59161f0cd7da02d8"

let golden_files =
  [
    ( "checkpoint1",
      "534442503187344865b2f2ded512b80d39015a0d900a1102080a6e616d65736572766572040e11020f000d040a0805656d70747911020f000d010a080364697211020f000d000a08076772616674656411020f010801670d020a08016111020f000d000a08017a11020f0108000d000a0805686f73747311020f000d020a0805616c70686111020f01080831302e302e302e310d000a08046265746111020f01080831302e302e302e320d000a0805757365727311020f000d010a080361646211020f01080e416e647265772042697272656c6c0d00"
    );
    ("logfile1", "53444257414c320a5dd0b4484dafccb4055e3b8a7fa508730700000000000000");
    ("version", "31");
  ]

let golden_updates ns =
  Ns.set_value ns (p "/hosts/alpha") (Some "10.0.0.1");
  Ns.set_value ns (p "/hosts/beta") (Some "10.0.0.2");
  Ns.set_value ns (p "/users/adb") (Some "Andrew Birrell");
  Ns.create ns (p "/empty/dir");
  Ns.write_subtree ns (p "/grafted")
    (Data.tree ~value:"g" [ ("z", Data.leaf (Some "")); ("a", Data.leaf None) ]);
  Ns.set_value ns (p "/gone") (Some "x");
  Ns.delete_subtree ns (p "/gone")

let of_hex h = String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_golden_checkpoint () =
  check Alcotest.string "fingerprint pinned" golden_fingerprint
    (P.fingerprint_hex Data.codec_pnode);
  let store = Mem.create_store ~seed:32 () in
  let fs = Mem.fs store in
  List.iter (fun (file, hex) -> Sdb_storage.Fs.write_file fs file (of_hex hex)) golden_files;
  let ns = Ns.open_exn fs in
  check Alcotest.(option string) "golden opens" (Some "Andrew Birrell")
    (Ns.lookup ns (p "/users/adb"));
  check Alcotest.(option string) "empty value" (Some "") (Ns.lookup ns (p "/grafted/z"));
  check Alcotest.int "nodes" 11 (Ns.count_nodes ns);
  Ns.close ns;
  let store = Mem.create_store ~seed:33 () in
  let fs = Mem.fs store in
  let ns = Ns.open_exn fs in
  golden_updates ns;
  Ns.checkpoint ns;
  Ns.close ns;
  List.iter
    (fun (file, hex) ->
      check Alcotest.string (file ^ " byte-identical") hex
        (String.concat ""
           (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
              (List.of_seq (String.to_seq (Sdb_storage.Fs.read_file fs file))))))
    golden_files

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

(* The digest encodes the root itself; it must stay the MD5 of the
   exchange tree's pickle, which replicas compare across versions. *)
let prop_digest_formula =
  Helpers.qtest ~count:60 "digest = MD5 of the exchange-tree pickle"
    QCheck2.Gen.(pair gen_raw_tree (list_size (0 -- 10) gen_update))
    (fun (t, updates) ->
      let _, _, ns = mem_ns () in
      Ns.write_subtree ns [] t;
      List.iter (fun u -> Ns.Db.update (Ns.db ns) u) updates;
      let tree, _ = Ns.snapshot_with_lsn ns in
      String.equal (Ns.digest ns) (Digest.string (P.encode Data.codec_tree tree)))

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
          Alcotest.test_case "state codec: empty, deep, wide" `Quick test_pnode_codec_shapes;
          Alcotest.test_case "state codec: unsorted pickle, last wins" `Quick
            test_unsorted_pickle_last_wins;
          Alcotest.test_case "state codec: golden checkpoint" `Quick test_golden_checkpoint;
          prop_pnode_codec_equals_tree;
          prop_unsorted_pickle_last_wins;
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
      ( "properties", [ prop_model; prop_model_survives_restart; prop_digest_formula ] );
    ]
