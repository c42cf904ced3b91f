let hello () = print_endline "hello"
let work () = if Sys.opaque_identity false then failwith "work"
let quiet () = try work () with _ -> ()
let drop xs = ignore (List.length xs)
let table = Hashtbl.create 16
