(* Seeded violations for the [swallow] rule in library code: a
   catch-all handler and an unascribed ignore. *)

let work () = if Sys.opaque_identity false then failwith "work"
let quiet () = try work () with _ -> ()
let drop xs = ignore (List.length xs)
