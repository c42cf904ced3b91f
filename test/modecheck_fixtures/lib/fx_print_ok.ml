(* Waived twin of Fx_print. *)

let hello () =
  (Printf.printf "hello\n" [@sdb.check.allow "print-in-lib: fixture waiver"])
