(* Waived twin of Fx_unpaired. *)

let m = Sdb_check.Mu.make "fx.unpaired_ok"

let forgets () =
  Sdb_check.Mu.lock m
  [@@sdb.check.allow "mutex-pairing: fixture waiver"]
