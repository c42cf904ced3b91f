(* Seeded violation for the [unprotected-acquire] rule: the Vlock is
   held across a blocking call with no Fun.protect to release it. *)

module Vlock = Sdb_vlock.Vlock

let lock = Vlock.create ~name:"fx.unprotected" ()

let slow () =
  Vlock.acquire lock Vlock.Update;
  Thread.delay 0.001;
  Vlock.release lock Vlock.Update
