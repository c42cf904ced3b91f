(* Waived twin of Fx_swallow: the handler is waived, the ignore
   ascribed. *)

let work () = if Sys.opaque_identity false then failwith "work"

let quiet () =
  ((try work () with _ -> ()) [@sdb.check.allow "swallow: fixture waiver"])

let drop xs = ignore (List.length xs : int)
