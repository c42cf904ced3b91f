(* The disciplined twin of Fx_trylock: the try-locked [a] is released on
   the arm that took it, the arm where the try failed holds nothing to
   release, and both functions take [a] before [b]. *)

let a = Sdb_check.Mu.make "fx.try_ok.a"
let b = Sdb_check.Mu.make "fx.try_ok.b"

let tried_ab () =
  if Sdb_check.Mu.try_lock a then
    Fun.protect
      ~finally:(fun () -> Sdb_check.Mu.unlock a)
      (fun () -> Sdb_check.Mu.with_lock b (fun () -> ()))
  else Sdb_check.Mu.with_lock b (fun () -> ())

let untried () =
  if not (Sdb_check.Mu.try_lock a) then ()
  else Sdb_check.Mu.unlock a

let ab () =
  Sdb_check.Mu.with_lock a (fun () -> Sdb_check.Mu.with_lock b (fun () -> ()))
