(* Seeded violation for the [deadlock] rule: a non-recursive mutex
   class locked again while it is held. *)

let m = Sdb_check.Mu.make "fx.deadlock"

let twice () =
  Sdb_check.Mu.with_lock m (fun () -> Sdb_check.Mu.with_lock m (fun () -> ()))
