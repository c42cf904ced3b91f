(* A test-side reference to Fx_dead.dead: it does not count. *)

let use () = Fx_dead.dead 1
