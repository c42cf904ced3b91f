module H = Sdb_util.Histogram

type labels = (string * string) list

type counter = { c_value : int Atomic.t }
type gauge = { g_value : float Atomic.t }

(* One counter per bucket (see "Log-linear buckets" below) plus the
   exact scalars.  Its size is fixed at creation: recording replaces
   boxed floats and bumps ints, it never grows anything. *)
type histogram = {
  h_buckets : int Atomic.t array;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
}

type data =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type series = { labels : labels; data : data }

(* One family per metric name; all its series share the kind. *)
type family = {
  f_name : string;
  mutable f_help : string;
  f_kind : string; (* "counter" | "gauge" | "summary" *)
  mutable f_series : series list;
}

(* ------------------------------------------------------------------ *)
(* Log-linear buckets                                                  *)

(* HDR style: each power of two in [2^-32, 2^32) is cut into
   2^sub_bits equal-width buckets, and one bucket at each end takes
   what falls outside (zero, negatives and NaN below; 2^32 and up
   above).  That spans sub-nanosecond to century-long durations and
   any plausible count, in 514 buckets.  A positive float's bucket is
   its biased exponent and top [sub_bits] mantissa bits, read straight
   off its bit pattern, which is monotone in the value. *)

let sub_bits = 3
let min_exp = -32
let max_exp = 32
let range_lo = Float.ldexp 1.0 min_exp
let range_hi = Float.ldexp 1.0 max_exp
let n_buckets = ((max_exp - min_exp) lsl sub_bits) + 2
let shift = 52 - sub_bits

(* The exponent-and-mantissa key of [range_lo]; bucket [i] in range
   holds the floats whose key is [key_lo + i - 1]. *)
let key_lo = (min_exp + 1023) lsl sub_bits

let bucket_of v =
  if v >= range_lo then
    if v < range_hi then
      Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) shift)
      - key_lo + 1
    else n_buckets - 1
  else 0

let lower_bound i =
  Int64.float_of_bits (Int64.shift_left (Int64.of_int (key_lo + i - 1)) shift)

(* A bucket is 2^-sub_bits of its lower bound wide at most, so its
   midpoint is within 2^-(sub_bits+1) = 6.25% of every value in it.
   The edge buckets have no midpoint; they stand for the exact min and
   max, which is what clamping makes of infinities. *)
let estimate i =
  if i = 0 then Float.neg_infinity
  else if i = n_buckets - 1 then Float.infinity
  else (lower_bound i +. lower_bound (i + 1)) /. 2.0

(* The bucket holding the order statistic nearest to rank p·(n−1),
   the rank Histogram.percentile interpolates at; [count] is the sum
   of [counts], so the search stops in range. *)
let quantile counts ~count ~min ~max p =
  let rank = Float.to_int (Float.round (p *. float_of_int (count - 1))) in
  let rec find i seen =
    let seen = seen + counts.(i) in
    if seen > rank then i else find (i + 1) seen
  in
  Float.min max (Float.max min (estimate (find 0 0)))

let summarize counts ~sum ~min ~max =
  let count = Array.fold_left ( + ) 0 counts in
  if count = 0 then H.empty_snapshot
  else
    let q = quantile counts ~count ~min ~max in
    {
      H.s_count = count;
      s_total = sum;
      s_mean = sum /. float_of_int count;
      s_min = min;
      s_max = max;
      s_p50 = q 0.5;
      s_p90 = q 0.9;
      s_p99 = q 0.99;
      s_p999 = q 0.999;
    }

let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let registry : (string, family) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let canonical labels = List.sort compare labels

let kind_of_data = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "summary"

(* Find-or-create a series; the fresh thunk runs only under the lock. *)
let intern name ~help ~labels ~kind fresh =
  let labels = canonical labels in
  locked (fun () ->
      let family =
        match Hashtbl.find_opt registry name with
        | Some f ->
          if not (String.equal f.f_kind kind) then
            invalid_arg
              (Printf.sprintf "Metrics: %s is a %s, requested as %s" name f.f_kind
                 kind);
          if f.f_help = "" && help <> "" then f.f_help <- help;
          f
        | None ->
          let f = { f_name = name; f_help = help; f_kind = kind; f_series = [] } in
          Hashtbl.add registry name f;
          f
      in
      match List.find_opt (fun s -> s.labels = labels) family.f_series with
      | Some s -> s.data
      | None ->
        let data = fresh () in
        assert (String.equal (kind_of_data data) kind);
        family.f_series <- family.f_series @ [ { labels; data } ];
        data)

let counter ?(help = "") ?(labels = []) name =
  match
    intern name ~help ~labels ~kind:"counter" (fun () ->
        Counter { c_value = Atomic.make 0 })
  with
  | Counter c -> c
  | _ -> assert false

let gauge ?(help = "") ?(labels = []) name =
  match
    intern name ~help ~labels ~kind:"gauge" (fun () ->
        Gauge { g_value = Atomic.make 0.0 })
  with
  | Gauge g -> g
  | _ -> assert false

let histogram ?(help = "") ?(labels = []) name =
  match
    intern name ~help ~labels ~kind:"summary" (fun () ->
        Histogram
          {
            h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0.0;
            h_min = Atomic.make Float.infinity;
            h_max = Atomic.make Float.neg_infinity;
          })
  with
  | Histogram h -> h
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotone";
  if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_value n : int)

let incr c = add c 1

let set_gauge g v = if Atomic.get enabled then Atomic.set g.g_value v

(* CAS loops on boxed floats: [cur] is the very block read, so the
   swap fails only when another recorder got in between.  The float
   annotations matter: unannotated, [<] is the polymorphic compare, a
   C call on every observation. *)
let rec add_float (a : float Atomic.t) (v : float) =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. v)) then add_float a v

let rec lower_to (a : float Atomic.t) (v : float) =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then lower_to a v

let rec raise_to (a : float Atomic.t) (v : float) =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then raise_to a v

(* The bucket is bumped last: a reader that sees its count (readers
   take buckets first) also sees the min, max and sum that cover it. *)
let observe h v =
  if Atomic.get enabled then begin
    lower_to h.h_min v;
    raise_to h.h_max v;
    add_float h.h_sum v;
    ignore (Atomic.fetch_and_add (Array.unsafe_get h.h_buckets (bucket_of v)) 1 : int)
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let counter_value c = Atomic.get c.c_value

let gauge_value g = Atomic.get g.g_value

(* Buckets before scalars, the reverse of [observe]'s order. *)
let read_buckets h = Array.map Atomic.get h.h_buckets

let histogram_snapshot h =
  let counts = read_buckets h in
  summarize counts ~sum:(Atomic.get h.h_sum) ~min:(Atomic.get h.h_min)
    ~max:(Atomic.get h.h_max)

let summaries () =
  locked (fun () ->
      Hashtbl.fold
        (fun _ f acc ->
          List.fold_left
            (fun acc s ->
              match s.data with
              | Histogram h -> (f.f_name, s.labels, histogram_snapshot h) :: acc
              | Counter _ | Gauge _ -> acc)
            acc f.f_series)
        registry []
      |> List.sort compare)

let merged_summary name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | None -> H.empty_snapshot
      | Some f ->
        let counts = Array.make n_buckets 0 in
        let sum = ref 0.0 and min = ref Float.infinity and max = ref Float.neg_infinity in
        List.iter
          (fun s ->
            match s.data with
            | Histogram h ->
              Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) (read_buckets h);
              sum := !sum +. Atomic.get h.h_sum;
              min := Float.min !min (Atomic.get h.h_min);
              max := Float.max !max (Atomic.get h.h_max)
            | Counter _ | Gauge _ -> ())
          f.f_series;
        summarize counts ~sum:!sum ~min:!min ~max:!max)

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let format_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label_value v ^ "\"") labels)
    ^ "}"

let fmt_float v =
  (* Shortest representation that round-trips; avoids "3.0000000001". *)
  let s = Printf.sprintf "%.12g" v in
  s

let render_series buf family { labels; data } =
  let line ?(suffix = "") ?(extra = []) value =
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s %s\n" family.f_name suffix
         (format_labels (labels @ extra))
         value)
  in
  match data with
  | Counter c -> line (string_of_int (counter_value c))
  | Gauge g -> line (fmt_float (gauge_value g))
  | Histogram h ->
    let s = histogram_snapshot h in
    let q name v = line ~extra:[ ("quantile", name) ] (fmt_float v) in
    q "0.5" s.H.s_p50;
    q "0.9" s.H.s_p90;
    q "0.99" s.H.s_p99;
    q "0.999" s.H.s_p999;
    line ~suffix:"_sum" (fmt_float s.H.s_total);
    line ~suffix:"_count" (string_of_int s.H.s_count);
    line ~suffix:"_min" (fmt_float s.H.s_min);
    line ~suffix:"_max" (fmt_float s.H.s_max)

(* Collectors pull values from subsystems that don't push on every
   event (e.g. the concurrency sanitizer); they run before each render,
   outside the registry lock, because they call counter/gauge/set_gauge
   themselves. *)
let collectors : (string, unit -> unit) Hashtbl.t = Hashtbl.create 8
let collectors_mutex = Mutex.create ()

let register_collector ~name f =
  Mutex.lock collectors_mutex;
  Hashtbl.replace collectors name f;
  Mutex.unlock collectors_mutex

let run_collectors () =
  Mutex.lock collectors_mutex;
  let fs = Hashtbl.fold (fun _ f acc -> f :: acc) collectors [] in
  Mutex.unlock collectors_mutex;
  List.iter (fun f -> f ()) fs

let render () =
  run_collectors ();
  locked (fun () ->
      let families =
        Hashtbl.fold (fun _ f acc -> f :: acc) registry []
        |> List.sort (fun a b -> compare a.f_name b.f_name)
      in
      let buf = Buffer.create 4096 in
      List.iter
        (fun f ->
          if f.f_help <> "" then
            Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" f.f_name f.f_help);
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.f_name f.f_kind);
          List.iter (render_series buf f)
            (List.sort (fun a b -> compare a.labels b.labels) f.f_series))
        families;
      Buffer.contents buf)

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ f ->
          List.iter
            (fun s ->
              match s.data with
              | Counter c -> Atomic.set c.c_value 0
              | Gauge g -> Atomic.set g.g_value 0.0
              | Histogram h ->
                Array.iter (fun b -> Atomic.set b 0) h.h_buckets;
                Atomic.set h.h_sum 0.0;
                Atomic.set h.h_min Float.infinity;
                Atomic.set h.h_max Float.neg_infinity)
            f.f_series)
        registry)
