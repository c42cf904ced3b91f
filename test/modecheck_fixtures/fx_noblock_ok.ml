(* Waived twin of Fx_noblock. *)

let sleeper () = Thread.delay 0.001

let fast () =
  sleeper ()
  [@@sdb.noblock] [@@sdb.check.allow "noblock: fixture waiver"]
