(* The other side of the lib/-scoped rules: outside lib/ the same code
   is not a finding, and an unreferenced export is not dead. *)

val hello : unit -> unit
val quiet : unit -> unit
val drop : int list -> unit
val table : (string, int) Hashtbl.t
