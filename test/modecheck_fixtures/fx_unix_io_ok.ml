(* Waived twin of Fx_unix_io. *)

let remove path = (Unix.unlink path [@sdb.check.allow "unix-io: fixture waiver"])
