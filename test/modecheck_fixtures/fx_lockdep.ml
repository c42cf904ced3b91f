(* Seeded violation for the [lockdep-xcheck] rule: the commit-group
   mutex taken before the checkpoint token inverts the documented
   order, and the documented edges are never derived. *)

let gc = Sdb_check.Mu.make "smalldb.gc"
let ckpt = Sdb_check.Mu.make ~kind:`Vlock "smalldb.ckpt"

let inverted () =
  Sdb_check.Mu.with_lock gc (fun () -> Sdb_check.Mu.with_lock ckpt (fun () -> ()))
