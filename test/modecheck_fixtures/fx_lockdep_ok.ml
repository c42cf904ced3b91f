(* Disciplined twin of Fx_lockdep: exactly the documented order,
   smalldb.ckpt -> vlock -> smalldb.gc. *)

module Vlock = Sdb_vlock.Vlock

let lock = Vlock.create ~name:"fx.lockdep" ()
let ckpt = Sdb_check.Mu.make ~kind:`Vlock "smalldb.ckpt"
let gc = Sdb_check.Mu.make "smalldb.gc"

let checkpoint () =
  Sdb_check.Mu.with_lock ckpt (fun () ->
      Vlock.with_lock lock Vlock.Shared (fun () -> ()))

let commit () =
  Vlock.with_lock lock Vlock.Update (fun () ->
      Sdb_check.Mu.with_lock gc (fun () -> ()))
