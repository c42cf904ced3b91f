type t = { components : string list; descend : bool }

(* Classic backtracking glob over one component: [star] remembers the
   last '*' position and [ss] how much of [s] it has absorbed, so a
   mismatch later backtracks by letting the star eat one more char. *)
let component_matches pattern s =
  let np = String.length pattern and ns = String.length s in
  let pi = ref 0 and si = ref 0 and star = ref (-1) and ss = ref 0 in
  let ok = ref true in
  while !ok && !si < ns do
    if !pi < np && (pattern.[!pi] = '?' || pattern.[!pi] = s.[!si]) then begin
      incr pi;
      incr si
    end
    else if !pi < np && pattern.[!pi] = '*' then begin
      star := !pi;
      ss := !si;
      incr pi
    end
    else if !star >= 0 then begin
      pi := !star + 1;
      incr ss;
      si := !ss
    end
    else ok := false
  done;
  while !ok && !pi < np && pattern.[!pi] = '*' do
    incr pi
  done;
  !ok && !pi = np

let compile text =
  match Name_path.of_string text with
  | Error e -> Error e
  | Ok components ->
    let rec split acc = function
      | [] -> Ok { components = List.rev acc; descend = false }
      | [ "**" ] -> Ok { components = List.rev acc; descend = true }
      | "**" :: _ -> Error "glob: ** is only allowed as the final component"
      | c :: rest -> split (c :: acc) rest
    in
    split [] components

let rec match_components components path descend =
  match (components, path) with
  (* A trailing ** matches descendants only, not the prefix itself. *)
  | [], [] -> not descend
  | [], _ :: _ -> descend
  | _ :: _, [] -> false
  | p :: components, c :: path ->
    component_matches p c && match_components components path descend

let matches t path = match_components t.components path t.descend

(* A path is a viable prefix when each of its components matches the
   corresponding pattern component; deeper pattern components may still
   be satisfied by descendants. *)
let rec prefix_viable_components components path descend =
  match (components, path) with
  | _, [] -> true
  | [], _ :: _ -> descend
  | p :: components, c :: path ->
    component_matches p c && prefix_viable_components components path descend

let prefix_viable t path = prefix_viable_components t.components path t.descend
