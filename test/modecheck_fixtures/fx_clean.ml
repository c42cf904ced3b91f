(* Disciplined twin of the seeded fixtures: contracts declared and
   honored.  The checker must stay silent here — it gates the test
   against rules that fire on correct code. *)

module Vlock = Sdb_vlock.Vlock

let lock = Vlock.create ~name:"fx.clean" ()
let state = ref 0

let bump () =
  state := !state + 1
  [@@sdb.requires exclusive]

let write () =
  Vlock.with_lock lock Vlock.Exclusive bump
  [@@sdb.acquires exclusive]

let read_state () =
  Vlock.with_lock lock Vlock.Shared (fun () -> !state)
  [@@sdb.acquires shared]
