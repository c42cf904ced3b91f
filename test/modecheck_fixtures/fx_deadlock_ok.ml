(* Waived twin of Fx_deadlock. *)

let m = Sdb_check.Mu.make "fx.deadlock_ok"

let twice () =
  Sdb_check.Mu.with_lock m (fun () -> Sdb_check.Mu.with_lock m (fun () -> ()))
  [@@sdb.check.allow "deadlock: fixture waiver"]
