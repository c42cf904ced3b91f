(* Seeded violation for the [unix-io] rule, outside lib/storage: the
   path is resolved, so a local open and a module alias are caught. *)

let open_it path =
  let open Unix in
  openfile path [ O_RDONLY ] 0

module U = Unix

let remove path = U.unlink path
