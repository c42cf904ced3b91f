type t = string list

let root = []

let component_ok c = String.length c > 0 && not (String.contains c '/')

let validate p =
  let rec go = function
    | [] -> Ok p
    | c :: rest -> if component_ok c then go rest else Error (Printf.sprintf "invalid name component %S" c)
  in
  go p

let of_string s =
  let parts = String.split_on_char '/' s in
  (* Leading '/' produces an initial empty field; a bare "/" or ""
     produces only empty fields, meaning the root. *)
  let parts = List.filter (fun c -> c <> "") parts in
  validate parts

let to_string = function [] -> "/" | p -> "/" ^ String.concat "/" p

let rec parent = function
  | [] -> None
  | [ _ ] -> Some []
  | c :: rest -> (
    match parent rest with Some p -> Some (c :: p) | None -> None)
