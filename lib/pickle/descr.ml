type t =
  | Unit
  | Bool
  | Int
  | Float
  | String
  | Pair of t * t
  | Triple of t * t * t
  | List of t
  | Option of t
  | Result of t * t
  | Record of string * (string * t) list
  | Variant of string * (string * t option) list
  | Conv of string * t
  | Shared of t
  | Ref of t
  | Hashtbl of t * t
  | Named of string * t
  | Recur of string

(* The rendering quotes user-supplied names so that structurally
   different descriptions can never render to the same string. *)
let quote s = Printf.sprintf "%S" s

let rec to_string = function
  | Unit -> "unit"
  | Bool -> "bool"
  | Int -> "int"
  | Float -> "float"
  | String -> "string"
  | Pair (a, b) -> Printf.sprintf "pair(%s,%s)" (to_string a) (to_string b)
  | Triple (a, b, c) ->
    Printf.sprintf "triple(%s,%s,%s)" (to_string a) (to_string b) (to_string c)
  | List a -> Printf.sprintf "list(%s)" (to_string a)
  | Option a -> Printf.sprintf "option(%s)" (to_string a)
  | Result (a, b) -> Printf.sprintf "result(%s,%s)" (to_string a) (to_string b)
  | Record (name, fields) ->
    let field (fname, d) = Printf.sprintf "%s:%s" (quote fname) (to_string d) in
    Printf.sprintf "record %s{%s}" (quote name)
      (String.concat ";" (List.map field fields))
  | Variant (name, cases) ->
    let case (cname, d) =
      match d with
      | None -> quote cname
      | Some d -> Printf.sprintf "%s of %s" (quote cname) (to_string d)
    in
    Printf.sprintf "variant %s[%s]" (quote name)
      (String.concat "|" (List.map case cases))
  | Conv (name, base) -> Printf.sprintf "conv %s(%s)" (quote name) (to_string base)
  | Shared a -> Printf.sprintf "shared(%s)" (to_string a)
  | Ref a -> Printf.sprintf "ref(%s)" (to_string a)
  | Hashtbl (k, v) -> Printf.sprintf "hashtbl(%s,%s)" (to_string k) (to_string v)
  | Named (name, body) -> Printf.sprintf "mu %s.%s" (quote name) (to_string body)
  | Recur name -> Printf.sprintf "recur %s" (quote name)

let fingerprint d = Digest.string (to_string d)
let fingerprint_hex d = Digest.to_hex (fingerprint d)
