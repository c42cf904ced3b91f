(* Seeded violation for the [dead-export] rule: [dead] is exported
   from a library interface and only a test unit references it. *)

val dead : int -> int
