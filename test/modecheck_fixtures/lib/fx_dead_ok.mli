(* Waived twin of Fx_dead. *)

val kept : int -> int
[@@sdb.check.allow "dead-export: fixture waiver"]
