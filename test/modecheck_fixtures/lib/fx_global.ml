(* Seeded violation for the [global-mutable] rule: module-level state
   in a library unit that never synchronizes. *)

let table : (string, int) Hashtbl.t = Hashtbl.create 16
let get k = Hashtbl.find_opt table k
