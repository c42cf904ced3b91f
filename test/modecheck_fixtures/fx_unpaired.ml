(* Seeded violations for the [mutex-pairing] rule: a Mu lock and a raw
   Mutex lock still held when their functions return (the second
   unlocks a different mutex). *)

let m = Sdb_check.Mu.make "fx.unpaired"
let a = Mutex.create ()
let b = Mutex.create ()

let forgets () = Sdb_check.Mu.lock m

let mismatched () =
  Mutex.lock a;
  Mutex.unlock b
