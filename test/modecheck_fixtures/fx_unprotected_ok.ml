(* Waived twin of Fx_unprotected. *)

module Vlock = Sdb_vlock.Vlock

let lock = Vlock.create ~name:"fx.unprotected_ok" ()

let slow () =
  Vlock.acquire lock Vlock.Update
  [@sdb.check.allow "unprotected-acquire: fixture waiver"];
  Thread.delay 0.001;
  Vlock.release lock Vlock.Update
