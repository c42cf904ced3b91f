(* The exempt side of [unix-io]: lib/storage is where file I/O lives. *)

let remove path = Unix.unlink path
