external now_ns : unit -> int64 = "sdb_mono_now_ns"

(* Belt and braces: CLOCK_MONOTONIC never goes backward on one CPU, but
   clamp anyway so a reading can never regress past the max this
   process has observed (the float conversion is the only consumer). *)
let max_seen = Atomic.make 0L

let now_ns () =
  let t = now_ns () in
  let rec publish () =
    let seen = Atomic.get max_seen in
    if Int64.compare t seen <= 0 then seen
    else if Atomic.compare_and_set max_seen seen t then t
    else publish ()
  in
  publish ()

let now_s () = Int64.to_float (now_ns ()) /. 1e9
