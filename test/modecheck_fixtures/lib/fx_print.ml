(* Seeded violations for the [print-in-lib] rule in library code: a
   direct print, and a printer passed as a value. *)

let hello () = Printf.printf "hello\n"
let each names = List.iter print_endline names
