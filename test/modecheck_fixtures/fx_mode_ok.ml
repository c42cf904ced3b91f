(* Waived twin of Fx_mode: the same unheld call, waived at the call. *)

let counter = ref 0

let needs_update () =
  incr counter
  [@@sdb.requires update]

let caller () =
  (needs_update () [@sdb.check.allow "mode: fixture waiver"])
