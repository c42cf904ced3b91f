module P = Sdb_pickle.Pickle
module Descr = Sdb_pickle.Descr

let check = Alcotest.check

let roundtrip codec v = P.decode codec (P.encode codec v)

let check_roundtrip testable name codec v =
  check testable name v (roundtrip codec v)

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)

let test_primitives () =
  check_roundtrip Alcotest.unit "unit" P.unit ();
  check_roundtrip Alcotest.bool "true" P.bool true;
  check_roundtrip Alcotest.bool "false" P.bool false;
  List.iter
    (fun n -> check_roundtrip Alcotest.int "int" P.int n)
    [ 0; 1; -1; 42; -127; 128; 65536; max_int; min_int ];
  List.iter
    (fun f -> check_roundtrip (Alcotest.float 0.0) "float" P.float f)
    [ 0.0; -0.0; 1.5; -3.25; infinity; neg_infinity; max_float; min_float; epsilon_float ];
  (* NaN round-trips bit-exactly even though nan <> nan. *)
  let nan_bits = Int64.bits_of_float (roundtrip P.float nan) in
  check Alcotest.int64 "nan bits" (Int64.bits_of_float nan) nan_bits;
  check_roundtrip Alcotest.string "string" P.string "hello";
  check_roundtrip Alcotest.string "empty string" P.string "";
  check_roundtrip Alcotest.string "binary string" P.string "\x00\xFF\x80\n\t";
  check_roundtrip Alcotest.string "long string" P.string (String.make 100_000 'x')

(* ------------------------------------------------------------------ *)
(* Compounds                                                           *)

let test_compounds () =
  check_roundtrip (Alcotest.pair Alcotest.int Alcotest.string) "pair"
    (P.pair P.int P.string) (42, "x");
  check_roundtrip
    (Alcotest.triple Alcotest.int Alcotest.bool Alcotest.string)
    "triple"
    (P.triple P.int P.bool P.string)
    (1, true, "y");
  check_roundtrip (Alcotest.list Alcotest.int) "list" (P.list P.int) [ 1; 2; 3 ];
  check_roundtrip (Alcotest.list Alcotest.int) "empty list" (P.list P.int) [];
  check_roundtrip (Alcotest.option Alcotest.int) "some" (P.option P.int) (Some 9);
  check_roundtrip (Alcotest.option Alcotest.int) "none" (P.option P.int) None;
  check_roundtrip
    (Alcotest.result Alcotest.int Alcotest.string)
    "ok"
    (P.result P.int P.string)
    (Ok 1);
  check_roundtrip
    (Alcotest.result Alcotest.int Alcotest.string)
    "error"
    (P.result P.int P.string)
    (Error "nope");
  check_roundtrip
    (Alcotest.list (Alcotest.list (Alcotest.option Alcotest.int)))
    "nested"
    (P.list (P.list (P.option P.int)))
    [ [ Some 1; None ]; []; [ None ] ]

let test_hashtbl () =
  let codec = P.hashtbl P.string P.int in
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) [ ("a", 1); ("b", 2); ("c", 3) ];
  let back = roundtrip codec tbl in
  check Alcotest.int "size" 3 (Hashtbl.length back);
  List.iter
    (fun (k, v) -> check (Alcotest.option Alcotest.int) k (Some v) (Hashtbl.find_opt back k))
    [ ("a", 1); ("b", 2); ("c", 3) ];
  let empty = roundtrip codec (Hashtbl.create 4) in
  check Alcotest.int "empty size" 0 (Hashtbl.length empty)

(* ------------------------------------------------------------------ *)
(* Records and variants                                                *)

type person = { pname : string; age : int; emails : string list }

let codec_person =
  P.record3 "person"
    (P.field "name" P.string (fun p -> p.pname))
    (P.field "age" P.int (fun p -> p.age))
    (P.field "emails" (P.list P.string) (fun p -> p.emails))
    (fun pname age emails -> { pname; age; emails })

let test_record () =
  let p = { pname = "birrell"; age = 40; emails = [ "adb@src.dec.com" ] } in
  let p' = roundtrip codec_person p in
  check Alcotest.string "name" p.pname p'.pname;
  check Alcotest.int "age" p.age p'.age;
  check (Alcotest.list Alcotest.string) "emails" p.emails p'.emails

type shape =
  | Point
  | Circle of float
  | Rect of float * float
  | Label of string

let codec_shape =
  P.variant ~name:"shape"
    [
      P.case0 "point" Point (fun s -> s = Point);
      P.case "circle" P.float
        (function Circle r -> Some r | _ -> None)
        (fun r -> Circle r);
      P.case "rect" (P.pair P.float P.float)
        (function Rect (w, h) -> Some (w, h) | _ -> None)
        (fun (w, h) -> Rect (w, h));
      P.case "label" P.string
        (function Label s -> Some s | _ -> None)
        (fun s -> Label s);
    ]

let shape_testable =
  Alcotest.testable
    (fun ppf -> function
      | Point -> Format.fprintf ppf "Point"
      | Circle r -> Format.fprintf ppf "Circle %f" r
      | Rect (w, h) -> Format.fprintf ppf "Rect (%f, %f)" w h
      | Label s -> Format.fprintf ppf "Label %s" s)
    ( = )

let test_variant () =
  List.iter
    (fun s -> check_roundtrip shape_testable "shape" codec_shape s)
    [ Point; Circle 1.5; Rect (2.0, 3.0); Label "x" ]

let test_variant_unrecognized () =
  (* A variant whose cases do not cover the written value. *)
  let partial =
    P.variant ~name:"partial"
      [ P.case0 "point" Point (fun s -> s = Point) ]
  in
  match P.encode partial (Circle 1.0) with
  | _ -> Alcotest.fail "expected Error"
  | exception P.Error _ -> ()

let test_enum () =
  let codec = P.enum ~name:"color" [ ("red", `Red); ("green", `Green); ("blue", `Blue) ] in
  List.iter
    (fun c ->
      if roundtrip codec c <> c then Alcotest.fail "enum roundtrip")
    [ `Red; `Green; `Blue ]

let test_conv () =
  (* A rational stored as a pair. *)
  let codec =
    P.conv ~name:"ratio" (fun (n, d) -> (n, d)) (fun (n, d) -> (n, d))
      (P.pair P.int P.int)
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "conv" (3, 4) (roundtrip codec (3, 4))

(* ------------------------------------------------------------------ *)
(* Recursion and sharing                                               *)

type tree = Leaf | Node of tree * int * tree

let codec_tree =
  P.mu "tree" (fun self ->
      P.variant ~name:"tree"
        [
          P.case0 "leaf" Leaf (fun t -> t = Leaf);
          P.case "node"
            (P.triple self P.int self)
            (function Node (l, v, r) -> Some (l, v, r) | Leaf -> None)
            (fun (l, v, r) -> Node (l, v, r));
        ])

let rec tree_depth = function Leaf -> 0 | Node (l, _, r) -> 1 + max (tree_depth l) (tree_depth r)

let test_mu_tree () =
  let t = Node (Node (Leaf, 1, Leaf), 2, Node (Leaf, 3, Node (Leaf, 4, Leaf))) in
  if roundtrip codec_tree t <> t then Alcotest.fail "tree roundtrip";
  (* Deep recursion. *)
  let rec build n = if n = 0 then Leaf else Node (build (n - 1), n, Leaf) in
  let deep = build 5000 in
  check Alcotest.int "deep tree depth" 5000 (tree_depth (roundtrip codec_tree deep))

let test_shared_dedup () =
  let codec = P.list (P.shared P.string) in
  let s = String.make 1000 'z' in
  let many = [ s; s; s; s; s; s; s; s ] in
  let different = List.init 8 (fun i -> String.make 1000 (Char.chr (97 + i))) in
  let enc_shared = P.encode codec many in
  let enc_diff = P.encode codec different in
  (* Eight copies of one string must be much smaller than eight
     distinct strings. *)
  Alcotest.check Alcotest.bool "sharing compresses" true
    (String.length enc_shared < String.length enc_diff / 4);
  let back = P.decode codec enc_shared in
  (match back with
  | first :: rest ->
    check Alcotest.string "value" s first;
    List.iter (fun x -> Alcotest.check Alcotest.bool "physically shared" true (x == first)) rest
  | [] -> Alcotest.fail "empty");
  (* Distinct but equal strings written through [shared] by different
     writer calls stay independent. *)
  let two = P.decode codec (P.encode codec [ String.make 5 'a'; String.make 5 'a' ]) in
  check Alcotest.int "two values" 2 (List.length two)

type cyc = C of cyc list ref

let codec_cyc =
  P.mu "cyc" (fun self ->
      P.conv ~name:"cyc"
        (fun (C r) -> r)
        (fun r -> C r)
        (P.shared_ref ~dummy:[] (P.list self)))

let test_shared_ref_cycle () =
  (* A cyclic linked structure through refs. *)
  let r = ref [] in
  let cell = C r in
  r := [ cell; cell ];
  let (C r') = P.decode codec_cyc (P.encode codec_cyc cell) in
  (match !r' with
  | [ C a; C b ] ->
    Alcotest.check Alcotest.bool "cycle restored" true (a == r' && b == r')
  | _ -> Alcotest.fail "wrong shape");
  (* Acyclic sharing of an inner cell. *)
  let inner = C (ref []) in
  let outer = C (ref [ inner; inner ]) in
  let (C outer') = P.decode codec_cyc (P.encode codec_cyc outer) in
  match !outer' with
  | [ C a; C b ] -> Alcotest.check Alcotest.bool "inner shared" true (a == b)
  | _ -> Alcotest.fail "wrong shape 2"

let test_ref_cell () =
  let codec = P.ref_cell P.int in
  let r = roundtrip codec (ref 42) in
  check Alcotest.int "ref contents" 42 !r

(* ------------------------------------------------------------------ *)
(* Corruption and framing                                              *)

let test_trailing_bytes_rejected () =
  let enc = P.encode P.int 5 ^ "junk" in
  match P.decode P.int enc with
  | _ -> Alcotest.fail "expected Error"
  | exception P.Error _ -> ()

let test_truncation_rejected () =
  let enc = P.encode (P.pair P.string P.string) ("hello", "world") in
  for cut = 0 to String.length enc - 1 do
    match P.decode (P.pair P.string P.string) (String.sub enc 0 cut) with
    | _ -> Alcotest.fail (Printf.sprintf "truncation at %d accepted" cut)
    | exception P.Error _ -> ()
  done

let test_wrong_tag_rejected () =
  let enc = P.encode P.int 5 in
  match P.decode P.string enc with
  | _ -> Alcotest.fail "expected Error"
  | exception P.Error _ -> ()

let test_mutation_detected_or_equal () =
  (* Flipping any single byte must never produce a silently different
     valid value of a *different* shape; for scalars a flipped payload
     byte legitimately decodes to a different scalar, so we only check
     structure-bearing codecs reject or decode to something. *)
  let codec = P.list (P.pair P.string P.int) in
  let v = [ ("alpha", 1); ("beta", -2); ("gamma", 300) ] in
  let enc = P.encode codec v in
  let rejected = ref 0 in
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string enc in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
      match P.decode codec (Bytes.unsafe_to_string b) with
      | _ -> ()
      | exception P.Error _ -> incr rejected)
    enc;
  (* Most single-byte corruptions hit a tag, a length, or a count and
     must be caught by the pickle layer itself. *)
  Alcotest.check Alcotest.bool
    (Printf.sprintf "most corruptions rejected (%d/%d)" !rejected (String.length enc))
    true
    (!rejected * 2 > String.length enc)

let test_variant_bad_index () =
  let enc = P.encode codec_shape Point in
  (* Rewrite the case index varint (last byte) to an out-of-range one. *)
  let b = Bytes.of_string enc in
  Bytes.set b (Bytes.length b - 1) '\x37';
  match P.decode codec_shape (Bytes.unsafe_to_string b) with
  | _ -> Alcotest.fail "expected Error"
  | exception P.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Fingerprints and self-describing containers                         *)

let test_fingerprints_distinguish () =
  let fps =
    [
      P.fingerprint_hex P.int;
      P.fingerprint_hex P.string;
      P.fingerprint_hex (P.list P.int);
      P.fingerprint_hex (P.list P.string);
      P.fingerprint_hex (P.pair P.int P.string);
      P.fingerprint_hex (P.pair P.string P.int);
      P.fingerprint_hex codec_person;
      P.fingerprint_hex codec_shape;
      P.fingerprint_hex codec_tree;
    ]
  in
  let uniq = List.sort_uniq compare fps in
  check Alcotest.int "all distinct" (List.length fps) (List.length uniq)

let test_fingerprints_stable () =
  check Alcotest.string "same codec same fp" (P.fingerprint_hex codec_person)
    (P.fingerprint_hex codec_person);
  (* Field names matter. *)
  let other =
    P.record3 "person"
      (P.field "nom" P.string (fun p -> p.pname))
      (P.field "age" P.int (fun p -> p.age))
      (P.field "emails" (P.list P.string) (fun p -> p.emails))
      (fun pname age emails -> { pname; age; emails })
  in
  Alcotest.check Alcotest.bool "field rename changes fp" false
    (String.equal (P.fingerprint_hex codec_person) (P.fingerprint_hex other))

let test_to_of_string () =
  let v = { pname = "jones"; age = 30; emails = [] } in
  let s = P.to_string codec_person v in
  (match P.of_string codec_person s with
  | Ok v' -> check Alcotest.string "roundtrip via header" v.pname v'.pname
  | Error e -> Alcotest.fail e);
  (* Wrong codec: fingerprint mismatch, not garbage. *)
  (match P.of_string codec_shape s with
  | Ok _ -> Alcotest.fail "fingerprint mismatch accepted"
  | Error e ->
    Alcotest.check Alcotest.bool "mentions fingerprint" true
      (String.length e > 0));
  (* Not a pickle at all. *)
  (match P.of_string codec_person "garbage" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match P.of_string codec_person "" with
  | Ok _ -> Alcotest.fail "empty accepted"
  | Error _ -> ()

(* A collection pickles as the list of its elements: the same bytes
   and fingerprint as [P.list], read back through an array. *)
module Iset = Set.Make (Int)

let codec_iset =
  P.collection ~length:Iset.cardinal ~iter:Iset.iter
    ~of_array:(fun a -> Iset.of_seq (Array.to_seq a))
    P.int

let test_collection () =
  List.iter
    (fun xs ->
      let set = Iset.of_list xs in
      check (Alcotest.list Alcotest.int) "roundtrip" (Iset.elements set)
        (Iset.elements (roundtrip codec_iset set));
      check Alcotest.string "the list's bytes" (P.encode (P.list P.int) (Iset.elements set))
        (P.encode codec_iset set))
    [ []; [ 7 ]; [ 3; -1; 2 ]; List.init 300 (fun i -> i * 37) ];
  check Alcotest.string "the list's fingerprint" (P.fingerprint_hex (P.list P.int))
    (P.fingerprint_hex codec_iset);
  let arr =
    P.collection ~length:Array.length ~iter:Array.iter ~of_array:Fun.id P.string
  in
  check (Alcotest.array Alcotest.string) "array, wire order" [| "b"; "a"; "b" |]
    (roundtrip arr [| "b"; "a"; "b" |]);
  let rejects what s =
    match P.decode codec_iset s with
    | _ -> Alcotest.fail (what ^ " accepted")
    | exception P.Error _ -> ()
  in
  (* 300 elements: the length is a two-byte varint after the tag. *)
  let enc = P.encode codec_iset (Iset.of_list (List.init 300 Fun.id)) in
  rejects "length cut after its first byte" (String.sub enc 0 2);
  rejects "elements cut short" (String.sub enc 0 (String.length enc - 1));
  rejects "length past the input" (String.sub enc 0 3 ^ "\x04\x00");
  rejects "mis-tagged length" ("\x0A" ^ String.sub enc 1 (String.length enc - 1));
  let lying = P.collection ~length:(fun _ -> 2) ~iter:List.iter ~of_array:Array.to_list P.int in
  match P.encode lying [ 1 ] with
  | _ -> Alcotest.fail "a length the iterator does not match was written"
  | exception P.Error _ -> ()

let test_descr_rendering () =
  let d = P.descr (P.pair P.int (P.list P.string)) in
  check Alcotest.string "descr" "pair(int,list(string))" (Descr.to_string d)

let test_counters () =
  P.Counters.reset ();
  ignore (P.encode P.string "hello");
  Alcotest.check Alcotest.bool "bytes counted" true (P.Counters.bytes_pickled () > 0);
  check Alcotest.int "ops" 1 (P.Counters.pickle_ops ());
  ignore (P.decode P.string (P.encode P.string "world"));
  check Alcotest.int "unpickle ops" 1 (P.Counters.unpickle_ops ());
  Alcotest.check Alcotest.bool "unpickled bytes" true (P.Counters.bytes_unpickled () > 0);
  P.Counters.reset ();
  check Alcotest.int "reset" 0 (P.Counters.pickle_ops ())

let test_encode_into () =
  (* encode_into appends exactly encode's bytes, without disturbing
     what the caller already put in the buffer — the commit path reuses
     one growable buffer across updates. *)
  let v = { pname = "jones"; age = 30; emails = [ "j@x"; "j@y" ] } in
  let reference = P.encode codec_person v in
  let buf = Buffer.create 16 in
  Buffer.add_string buf "prefix";
  P.encode_into buf codec_person v;
  check Alcotest.string "appends encode's bytes" ("prefix" ^ reference)
    (Buffer.contents buf);
  (* Each call is self-contained: sharing ids restart, so a second
     append decodes on its own. *)
  P.encode_into buf codec_person v;
  check Alcotest.string "second append identical"
    ("prefix" ^ reference ^ reference)
    (Buffer.contents buf);
  let v' = P.decode codec_person reference in
  check Alcotest.string "still decodes" v.pname v'.pname;
  P.Counters.reset ();
  let b2 = Buffer.create 16 in
  P.encode_into b2 codec_person v;
  check Alcotest.int "counts one op" 1 (P.Counters.pickle_ops ());
  check Alcotest.int "counts appended bytes" (String.length reference)
    (P.Counters.bytes_pickled ())

(* ------------------------------------------------------------------ *)
(* Schema evolution                                                    *)

(* v0: just a name.  v1: name + age.  v2: record with emails. *)
let codec_v0 = P.string
let codec_v1 = P.pair P.string P.int

let person_v2 name =
  P.versioned ~name
    ~history:
      [
        P.old_version codec_v0 (fun pname -> { pname; age = -1; emails = [] });
        P.old_version codec_v1 (fun (pname, age) -> { pname; age; emails = [] });
      ]
    codec_person

let codec_person_evolved = person_v2 "person-evolved"

(* Simulate data written by older program versions: same name, shorter
   history, and the then-current codec as latest. *)
let codec_as_of_v0 = P.versioned ~name:"person-evolved" ~history:[] codec_v0

let codec_as_of_v1 =
  P.versioned ~name:"person-evolved"
    ~history:[ P.old_version codec_v0 (fun s -> (s, -1)) ]
    codec_v1

let test_versioned_reads_all_generations () =
  (* v0 data. *)
  let old0 = P.encode codec_as_of_v0 "wobber" in
  let p0 = P.decode codec_person_evolved old0 in
  check Alcotest.string "v0 name" "wobber" p0.pname;
  check Alcotest.int "v0 default age" (-1) p0.age;
  (* v1 data. *)
  let old1 = P.encode codec_as_of_v1 ("jones", 30) in
  let p1 = P.decode codec_person_evolved old1 in
  check Alcotest.string "v1 name" "jones" p1.pname;
  check Alcotest.int "v1 age" 30 p1.age;
  (* Current data round-trips. *)
  let p = { pname = "birrell"; age = 40; emails = [ "adb" ] } in
  let p' = roundtrip codec_person_evolved p in
  check Alcotest.string "v2 roundtrip" p.pname p'.pname;
  check (Alcotest.list Alcotest.string) "v2 emails" p.emails p'.emails

let test_versioned_fingerprint_stable () =
  (* The whole point: the fingerprint survives evolution, so headers
     written before the type grew still validate. *)
  check Alcotest.string "fp stable across versions"
    (P.fingerprint_hex codec_as_of_v0)
    (P.fingerprint_hex codec_person_evolved);
  (* ...but different families differ. *)
  Alcotest.check Alcotest.bool "different names differ" false
    (String.equal
       (P.fingerprint_hex (person_v2 "person-evolved"))
       (P.fingerprint_hex (person_v2 "other-family")))

let test_versioned_future_rejected () =
  (* Data written by a NEWER program (higher index) must be refused,
     not misread. *)
  let future = P.encode codec_person_evolved { pname = "x"; age = 1; emails = [] } in
  match P.decode codec_as_of_v1 future with
  | _ -> Alcotest.fail "future version accepted"
  | exception P.Error m ->
    Alcotest.check Alcotest.bool "mentions newer" true
      (String.length m > 0)

let test_versioned_containers () =
  (* to_string/of_string headers work across an evolution. *)
  let blob = P.to_string codec_as_of_v1 ("old-data", 7) in
  match P.of_string codec_person_evolved blob with
  | Ok p ->
    check Alcotest.string "upgraded through header" "old-data" p.pname;
    check Alcotest.int "upgraded age" 7 p.age
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)

let gen_person =
  QCheck2.Gen.(
    map3
      (fun n a e -> { pname = n; age = a; emails = e })
      (string_size ~gen:char (0 -- 30))
      int
      (list_size (0 -- 5) (string_size ~gen:char (0 -- 10))))

let prop_person_roundtrip =
  Helpers.qtest "person roundtrip" gen_person (fun p -> roundtrip codec_person p = p)

let gen_tree =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then pure Leaf
           else
             frequency
               [
                 (1, pure Leaf);
                 ( 3,
                   map3
                     (fun l v r -> Node (l, v, r))
                     (self (n / 2)) int (self (n / 2)) );
               ]))

let prop_tree_roundtrip =
  Helpers.qtest "recursive tree roundtrip" gen_tree (fun t -> roundtrip codec_tree t = t)

let prop_random_bytes_never_crash =
  Helpers.qtest "random bytes: error or value, never crash"
    QCheck2.Gen.(string_size ~gen:char (0 -- 200))
    (fun s ->
      match P.decode codec_person s with
      | _ -> true
      | exception P.Error _ -> true)

let prop_nested_roundtrip =
  let codec = P.list (P.option (P.pair P.int P.string)) in
  Helpers.qtest "nested compound roundtrip"
    QCheck2.Gen.(
      list_size (0 -- 20) (option (pair int (string_size ~gen:char (0 -- 20)))))
    (fun v -> roundtrip codec v = v)

let () =
  Helpers.run "pickle"
    [
      ( "primitives",
        [
          Alcotest.test_case "primitives" `Quick test_primitives;
          Alcotest.test_case "compounds" `Quick test_compounds;
          Alcotest.test_case "hashtbl" `Quick test_hashtbl;
          Alcotest.test_case "collection as a list" `Quick test_collection;
        ] );
      ( "structs",
        [
          Alcotest.test_case "record" `Quick test_record;
          Alcotest.test_case "variant" `Quick test_variant;
          Alcotest.test_case "variant unrecognized" `Quick test_variant_unrecognized;
          Alcotest.test_case "enum" `Quick test_enum;
          Alcotest.test_case "conv" `Quick test_conv;
        ] );
      ( "recursion-sharing",
        [
          Alcotest.test_case "mu tree" `Quick test_mu_tree;
          Alcotest.test_case "shared dedup + identity" `Quick test_shared_dedup;
          Alcotest.test_case "shared_ref cycles" `Quick test_shared_ref_cycle;
          Alcotest.test_case "ref cell" `Quick test_ref_cell;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_rejected;
          Alcotest.test_case "every truncation rejected" `Quick test_truncation_rejected;
          Alcotest.test_case "wrong tag" `Quick test_wrong_tag_rejected;
          Alcotest.test_case "byte flips mostly caught" `Quick test_mutation_detected_or_equal;
          Alcotest.test_case "variant bad index" `Quick test_variant_bad_index;
        ] );
      ( "fingerprints",
        [
          Alcotest.test_case "distinguish types" `Quick test_fingerprints_distinguish;
          Alcotest.test_case "stable and name-sensitive" `Quick test_fingerprints_stable;
          Alcotest.test_case "to/of_string headers" `Quick test_to_of_string;
          Alcotest.test_case "descr rendering" `Quick test_descr_rendering;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "encode_into appends in place" `Quick
            test_encode_into;
        ] );
      ( "evolution",
        [
          Alcotest.test_case "reads all generations" `Quick
            test_versioned_reads_all_generations;
          Alcotest.test_case "fingerprint stable" `Quick
            test_versioned_fingerprint_stable;
          Alcotest.test_case "future version rejected" `Quick
            test_versioned_future_rejected;
          Alcotest.test_case "containers across evolution" `Quick
            test_versioned_containers;
        ] );
      ( "properties",
        [
          prop_person_roundtrip;
          prop_tree_roundtrip;
          prop_random_bytes_never_crash;
          prop_nested_roundtrip;
        ] );
    ]
