(* Waived twin of Fx_global. *)

let table : (string, int) Hashtbl.t = Hashtbl.create 16
[@@sdb.check.allow "global-mutable: fixture waiver"]

let get k = Hashtbl.find_opt table k
