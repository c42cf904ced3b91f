(* Seeded violation for the [lock-order] rule through a try-lock: [a] is
   only tried, never waited for, but [b] is taken while holding it, and
   [ba] takes the two in the other order.  The try's winner waits for
   [b] while [ba], holding [b], waits for [a]. *)

let a = Sdb_check.Mu.make "fx.try.a"
let b = Sdb_check.Mu.make "fx.try.b"

let tried_ab () =
  if Sdb_check.Mu.try_lock a then
    Fun.protect
      ~finally:(fun () -> Sdb_check.Mu.unlock a)
      (fun () -> Sdb_check.Mu.with_lock b (fun () -> ()))

let ba () =
  Sdb_check.Mu.with_lock b (fun () -> Sdb_check.Mu.with_lock a (fun () -> ()))
