module Crc32 = Sdb_util.Crc32
module Varint = Sdb_util.Varint
module Rng = Sdb_util.Rng
module Tablefmt = Sdb_util.Tablefmt
module Histogram = Sdb_util.Histogram

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

let crc_hex s = Printf.sprintf "%08lx" (Crc32.to_int32 (Crc32.digest_string s))

let test_crc_vectors () =
  (* Standard IEEE CRC-32 check values. *)
  check Alcotest.string "empty" "00000000" (crc_hex "");
  check Alcotest.string "check string" "cbf43926" (crc_hex "123456789");
  check Alcotest.string "a" "e8b7be43" (crc_hex "a");
  check Alcotest.string "abc" "352441c2" (crc_hex "abc")

let test_crc_range () =
  let b = Bytes.of_string "xxhello worldyy" in
  let ranged = Crc32.digest_bytes b ~pos:2 ~len:11 in
  Alcotest.check Alcotest.bool "ranged digest" true
    (Crc32.equal ranged (Crc32.digest_string "hello world"))

let test_crc_bad_range () =
  let b = Bytes.of_string "abc" in
  Alcotest.check_raises "negative pos" (Invalid_argument "Crc32.update") (fun () ->
      ignore (Crc32.digest_bytes b ~pos:(-1) ~len:1));
  Alcotest.check_raises "overrun" (Invalid_argument "Crc32.update") (fun () ->
      ignore (Crc32.digest_bytes b ~pos:2 ~len:2))

let prop_crc_detects_flip =
  Helpers.qtest "crc detects single bit flip"
    QCheck2.Gen.(pair (string_size ~gen:printable (1 -- 64)) (int_bound 511))
    (fun (s, flip) ->
      let bit = flip mod (String.length s * 8) in
      let b = Bytes.of_string s in
      let byte = bit / 8 in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
      let mutated = Bytes.to_string b in
      mutated = s || not (Crc32.equal (Crc32.digest_string s) (Crc32.digest_string mutated)))

(* ------------------------------------------------------------------ *)
(* Varint                                                              *)

let encode_unsigned n =
  let b = Buffer.create 10 in
  Varint.write_unsigned b n;
  Buffer.contents b

let encode_signed n =
  let b = Buffer.create 10 in
  Varint.write_signed b n;
  Buffer.contents b

let test_varint_unsigned_roundtrip () =
  List.iter
    (fun n ->
      let v, pos = Varint.read_unsigned (encode_unsigned n) ~pos:0 in
      check Alcotest.int "value" n v;
      check Alcotest.int "consumed" (String.length (encode_unsigned n)) pos)
    [ 0; 1; 127; 128; 300; 16383; 16384; 1 lsl 20; 1 lsl 40; max_int ]

let test_varint_signed_roundtrip () =
  List.iter
    (fun n ->
      let v, _ = Varint.read_signed (encode_signed n) ~pos:0 in
      check Alcotest.int "value" n v)
    [ 0; 1; -1; 63; -64; 64; -65; 300; -300; max_int; min_int; min_int + 1 ]

let test_varint_sizes () =
  check Alcotest.int "1 byte" 1 (String.length (encode_unsigned 127));
  check Alcotest.int "2 bytes" 2 (String.length (encode_unsigned 128))

let expect_malformed name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Malformed")
  | exception Varint.Malformed _ -> ()

let test_varint_malformed () =
  expect_malformed "truncated" (fun () -> Varint.read_unsigned "\x80" ~pos:0);
  expect_malformed "empty" (fun () -> Varint.read_unsigned "" ~pos:0);
  expect_malformed "overlong zero" (fun () -> Varint.read_unsigned "\x80\x00" ~pos:0);
  expect_malformed "too long" (fun () ->
      Varint.read_unsigned "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01" ~pos:0);
  Alcotest.check_raises "negative write"
    (Invalid_argument "Varint.write_unsigned: negative") (fun () ->
      ignore (encode_unsigned (-1)))

let test_varint_offsets () =
  let buf = Buffer.create 16 in
  Varint.write_unsigned buf 300;
  Varint.write_unsigned buf 7;
  Varint.write_signed buf (-12345);
  let s = Buffer.contents buf in
  let a, p1 = Varint.read_unsigned s ~pos:0 in
  let b, p2 = Varint.read_unsigned s ~pos:p1 in
  let c, p3 = Varint.read_signed s ~pos:p2 in
  check Alcotest.int "first" 300 a;
  check Alcotest.int "second" 7 b;
  check Alcotest.int "third" (-12345) c;
  check Alcotest.int "all consumed" (String.length s) p3

let prop_varint_roundtrip =
  Helpers.qtest "varint signed roundtrip" QCheck2.Gen.int (fun n ->
      fst (Varint.read_signed (encode_signed n) ~pos:0) = n)

let prop_varint_unsigned_roundtrip =
  Helpers.qtest "varint unsigned roundtrip" QCheck2.Gen.(0 -- max_int) (fun n ->
      fst (Varint.read_unsigned (encode_unsigned n) ~pos:0) = n)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int a max_int = Rng.int b max_int then incr same
  done;
  Alcotest.check Alcotest.bool "streams differ" true (!same < 5)

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds"
  done;
  for _ = 1 to 1_000 do
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of bounds"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_uniformish () =
  let r = Rng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      if c < n / 10 * 8 / 10 || c > n / 10 * 12 / 10 then
        Alcotest.fail (Printf.sprintf "bucket count %d too far from %d" c (n / 10)))
    buckets

let test_rng_zipf () =
  let r = Rng.create ~seed:5 in
  let n = 1000 in
  let counts = Array.make n 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let v = Rng.zipf r ~n ~theta:0.9 in
    if v < 0 || v >= n then Alcotest.fail "zipf out of range";
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 must be much more popular than mid-ranks under heavy skew. *)
  Alcotest.check Alcotest.bool "skewed" true (counts.(0) > 20 * (counts.(500) + 1));
  (* theta = 0 degenerates to uniform. *)
  let v = Rng.zipf r ~n:10 ~theta:0.0 in
  Alcotest.check Alcotest.bool "uniform case in range" true (v >= 0 && v < 10)

let test_rng_string () =
  let r = Rng.create ~seed:13 in
  let s = Rng.string r ~len:32 in
  check Alcotest.int "length" 32 (String.length s);
  String.iter (fun c -> if Char.code c < 33 || Char.code c > 126 then Alcotest.fail "not printable") s

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)

let test_table_render () =
  let out =
    Tablefmt.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22222" ] ]
  in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  check Alcotest.int "line count" 4 (List.length lines);
  (match lines with
  | header :: rule :: _ ->
    Alcotest.check Alcotest.bool "header has name" true
      (String.length header >= 4 && String.sub header 0 4 = "name");
    String.iter
      (fun c -> if c <> '-' && c <> ' ' then Alcotest.fail "rule not dashes")
      rule
  | _ -> Alcotest.fail "missing lines");
  Alcotest.check_raises "align mismatch"
    (Invalid_argument "Tablefmt.render: align length mismatch") (fun () ->
      ignore (Tablefmt.render ~align:[ Tablefmt.Left ] ~header:[ "a"; "b" ] []))

let test_table_formatting_helpers () =
  check Alcotest.string "ms small" "0.042 ms" (Tablefmt.fmt_ms 0.042);
  check Alcotest.string "ms mid" "54.0 ms" (Tablefmt.fmt_ms 54.0);
  check Alcotest.string "seconds" "1.20 s" (Tablefmt.fmt_ms 1200.0);
  check Alcotest.string "us" "0.5 us" (Tablefmt.fmt_ms 0.0005);
  check Alcotest.string "bytes" "512 B" (Tablefmt.fmt_bytes 512);
  check Alcotest.string "mib" "1.0 MiB" (Tablefmt.fmt_bytes (1 lsl 20));
  check Alcotest.string "ratio" "2.1x" (Tablefmt.fmt_ratio 2.1)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)

let test_histogram_basics () =
  let h = Histogram.create () in
  check Alcotest.int "empty count" 0 (Histogram.count h);
  List.iter (Histogram.record h) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  check Alcotest.int "count" 5 (Histogram.count h);
  check (Alcotest.float 1e-9) "mean" 3.0 (Histogram.mean h);
  check (Alcotest.float 1e-9) "max" 5.0 (Histogram.max h);
  check (Alcotest.float 1e-9) "median" 3.0 (Histogram.percentile h 50.0);
  check (Alcotest.float 1e-9) "p100" 5.0 (Histogram.percentile h 100.0)

let test_histogram_growth_and_merge () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.record h (float_of_int i)
  done;
  check Alcotest.int "count" 1000 (Histogram.count h);
  (* Interpolated rank: 0.99·999 = 989.01, i.e. 1% of the way from the
     990th to the 991st sample. *)
  check (Alcotest.float 1e-6) "p99" 990.01 (Histogram.percentile h 99.0);
  let h2 = Histogram.create () in
  Histogram.record h2 5000.0;
  Histogram.merge_into h h2;
  check Alcotest.int "merge_into appends" 1001 (Histogram.count h);
  check Alcotest.int "merge source unchanged" 1 (Histogram.count h2);
  check (Alcotest.float 1e-6) "merge_into carries samples" 5000.0
    (Histogram.max h);
  Histogram.merge_into h2 h2;
  check Alcotest.int "self merge doubles" 2 (Histogram.count h2)

(* The satellite contract: interpolation is exact at sample boundaries
   (p0 = min, p100 = max, every multiple of 100/(N−1) is a recorded
   sample), and linear in between. *)
let test_histogram_interpolation () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 50.0; 10.0; 40.0; 20.0; 30.0 ];
  List.iteri
    (fun i want ->
      check
        (Alcotest.float 1e-9)
        (Printf.sprintf "edge p%d" (i * 25))
        want
        (Histogram.percentile h (float_of_int (i * 25))))
    [ 10.0; 20.0; 30.0; 40.0; 50.0 ];
  check (Alcotest.float 1e-9) "linear between edges" 22.0
    (Histogram.percentile h 30.0);
  let two = Histogram.create () in
  List.iter (Histogram.record two) [ 1.0; 2.0 ];
  check (Alcotest.float 1e-9) "median of two interpolates" 1.5
    (Histogram.percentile two 50.0);
  let one = Histogram.create () in
  Histogram.record one 7.0;
  check (Alcotest.float 1e-9) "single sample at any p" 7.0
    (Histogram.percentile one 99.9)

let test_histogram_empty_errors () =
  let h = Histogram.create () in
  Alcotest.check_raises "mean of empty" (Invalid_argument "Histogram.mean: empty")
    (fun () -> ignore (Histogram.mean h))

let test_histogram_percentile_opt () =
  let h = Histogram.create () in
  check (Alcotest.option (Alcotest.float 1e-9)) "empty" None
    (Histogram.percentile_opt h 50.0);
  List.iter (Histogram.record h) [ 1.0; 2.0; 3.0 ];
  check (Alcotest.option (Alcotest.float 1e-9)) "median" (Some 2.0)
    (Histogram.percentile_opt h 50.0);
  (* Must agree with the raising variant on non-empty data. *)
  check (Alcotest.float 1e-9) "agrees with percentile" (Histogram.percentile h 90.0)
    (Option.get (Histogram.percentile_opt h 90.0))

let test_histogram_snapshot () =
  let h = Histogram.create () in
  let s0 = Histogram.snapshot h in
  check Alcotest.int "empty count" 0 s0.Histogram.s_count;
  check (Alcotest.float 1e-9) "empty mean" 0.0 s0.Histogram.s_mean;
  check (Alcotest.float 1e-9) "empty max" 0.0 s0.Histogram.s_max;
  for i = 1 to 100 do
    Histogram.record h (float_of_int i)
  done;
  let s = Histogram.snapshot h in
  check Alcotest.int "count" 100 s.Histogram.s_count;
  check (Alcotest.float 1e-9) "total" 5050.0 s.Histogram.s_total;
  check (Alcotest.float 1e-9) "mean" 50.5 s.Histogram.s_mean;
  check (Alcotest.float 1e-9) "min" 1.0 s.Histogram.s_min;
  check (Alcotest.float 1e-9) "max" 100.0 s.Histogram.s_max;
  check (Alcotest.float 1e-9) "p50" (Histogram.percentile h 50.0) s.Histogram.s_p50;
  check (Alcotest.float 1e-9) "p90" (Histogram.percentile h 90.0) s.Histogram.s_p90;
  check (Alcotest.float 1e-9) "p99" (Histogram.percentile h 99.0) s.Histogram.s_p99;
  check (Alcotest.float 1e-9) "p999" (Histogram.percentile h 99.9)
    s.Histogram.s_p999

let () =
  Helpers.run "util"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_vectors;
          Alcotest.test_case "byte range" `Quick test_crc_range;
          Alcotest.test_case "bad range" `Quick test_crc_bad_range;
          prop_crc_detects_flip;
        ] );
      ( "varint",
        [
          Alcotest.test_case "unsigned roundtrip" `Quick test_varint_unsigned_roundtrip;
          Alcotest.test_case "signed roundtrip" `Quick test_varint_signed_roundtrip;
          Alcotest.test_case "encoded sizes" `Quick test_varint_sizes;
          Alcotest.test_case "malformed input" `Quick test_varint_malformed;
          Alcotest.test_case "sequential offsets" `Quick test_varint_offsets;
          prop_varint_roundtrip;
          prop_varint_unsigned_roundtrip;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "roughly uniform" `Quick test_rng_uniformish;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf;
          Alcotest.test_case "string" `Quick test_rng_string;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "format helpers" `Quick test_table_formatting_helpers;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "growth and merge" `Quick test_histogram_growth_and_merge;
          Alcotest.test_case "interpolation" `Quick test_histogram_interpolation;
          Alcotest.test_case "empty errors" `Quick test_histogram_empty_errors;
          Alcotest.test_case "percentile_opt" `Quick test_histogram_percentile_opt;
          Alcotest.test_case "snapshot" `Quick test_histogram_snapshot;
        ] );
    ]
