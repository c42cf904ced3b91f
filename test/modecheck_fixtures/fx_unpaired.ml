(* Seeded violations for the [mutex-pairing] rule: a Mu lock, a Mu lock
   taken by a successful try, and a raw Mutex lock still held when their
   functions return (the last unlocks a different mutex). *)

let m = Sdb_check.Mu.make "fx.unpaired"
let a = Mutex.create ()
let b = Mutex.create ()

let forgets () = Sdb_check.Mu.lock m
let forgets_tried () = if Sdb_check.Mu.try_lock m then ()

let mismatched () =
  Mutex.lock a;
  Mutex.unlock b
