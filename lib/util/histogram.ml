type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : float array option;
}

let create () = { samples = Array.make 64 0.0; len = 0; sorted = None }

let record t v =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- v;
  t.len <- t.len + 1;
  t.sorted <- None

let count t = t.len

let nonempty t name = if t.len = 0 then invalid_arg ("Histogram." ^ name ^ ": empty")

let total t =
  let acc = ref 0.0 in
  for i = 0 to t.len - 1 do
    acc := !acc +. t.samples.(i)
  done;
  !acc

let mean t =
  nonempty t "mean";
  total t /. float_of_int t.len

let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
    let s = Array.sub t.samples 0 t.len in
    Array.sort compare s;
    t.sorted <- Some s;
    s

let min t =
  nonempty t "min";
  (sorted t).(0)

let max t =
  nonempty t "max";
  (sorted t).(t.len - 1)

(* Linear interpolation between closest order statistics: rank
   p/100·(len−1) is split into an integer part (a sample index) and a
   fraction interpolated toward the next sample.  When the rank lands
   exactly on a sample ("bucket edge"), that sample is returned
   verbatim — percentile 0 is the min, 100 the max, and with N samples
   every multiple of 100/(N−1) is exact. *)
let percentile t p =
  nonempty t "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: out of range";
  let s = sorted t in
  if t.len = 1 then s.(0)
  else begin
    let h = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = int_of_float (Float.ceil h) in
    if lo = hi then s.(lo)
    else s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let percentile_opt t p = if t.len = 0 then None else Some (percentile t p)

type snapshot = {
  s_count : int;
  s_total : float;
  s_mean : float;
  s_min : float;
  s_max : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;
}

let empty_snapshot =
  {
    s_count = 0;
    s_total = 0.0;
    s_mean = 0.0;
    s_min = 0.0;
    s_max = 0.0;
    s_p50 = 0.0;
    s_p90 = 0.0;
    s_p99 = 0.0;
    s_p999 = 0.0;
  }

let snapshot t =
  if t.len = 0 then empty_snapshot
  else
    {
      s_count = t.len;
      s_total = total t;
      s_mean = mean t;
      s_min = min t;
      s_max = max t;
      s_p50 = percentile t 50.0;
      s_p90 = percentile t 90.0;
      s_p99 = percentile t 99.0;
      s_p999 = percentile t 99.9;
    }

(* Capture the source's array and length up front so merging a
   histogram into itself (or a concurrent [record] into [dst]) cannot
   read through a reallocation mid-loop. *)
let merge_into dst src =
  let src_samples = src.samples and n = src.len in
  for i = 0 to n - 1 do
    record dst src_samples.(i)
  done
