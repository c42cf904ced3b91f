module P = Sdb_pickle.Pickle

type tree = Tree of { tvalue : string option; tchildren : (string * tree) list }

(* The one wire format of a tree, whichever representation holds it:
   an optional value, then the children as a list of (label, subtree)
   pairs in ascending label order. *)
let node_codec ~children ~value ~kids ~make =
  P.mu "ns.tree" (fun self ->
      P.record2 "ns.tree"
        (P.field "value" (P.option P.string) value)
        (P.field "children" (children (P.pair P.string self)) kids)
        make)

let codec_tree =
  node_codec ~children:P.list
    ~value:(fun (Tree t) -> t.tvalue)
    ~kids:(fun (Tree t) -> t.tchildren)
    ~make:(fun tvalue tchildren -> Tree { tvalue; tchildren })

let leaf v = Tree { tvalue = v; tchildren = [] }

let sort_children cs = List.sort (fun (a, _) (b, _) -> String.compare a b) cs

let tree ?value children = Tree { tvalue = value; tchildren = sort_children children }

let rec equal_tree (Tree a) (Tree b) =
  Option.equal String.equal a.tvalue b.tvalue
  && List.length a.tchildren = List.length b.tchildren
  && List.for_all2
       (fun (la, ta) (lb, tb) -> String.equal la lb && equal_tree ta tb)
       (sort_children a.tchildren) (sort_children b.tchildren)

(* ------------------------------------------------------------------ *)
(* Persistent representation                                           *)

module Smap = Map.Make (String)

type pnode = { pvalue : string option; pchildren : pnode Smap.t }

let empty_pnode = { pvalue = None; pchildren = Smap.empty }

let rec pfind n = function
  | [] -> Some n
  | c :: rest -> (
    match Smap.find_opt c n.pchildren with
    | None -> None
    | Some child -> pfind child rest)

let pmem n path = pfind n path <> None

(* The edits below descend each level once: [Smap.update] finds the
   child and rebuilds the path to it in one walk.  Log replay and the
   commit's fold are streams of these. *)

(* [n] with its child [c] replaced by [f] of it (an absent child is
   empty). *)
let with_child n c f =
  {
    n with
    pchildren =
      Smap.update c
        (fun child -> Some (f (Option.value child ~default:empty_pnode)))
        n.pchildren;
  }

let rec pensure n = function
  | [] -> n
  | c :: rest -> with_child n c (fun child -> pensure child rest)

let rec pset_value n path v =
  match path with
  | [] -> { n with pvalue = v }
  | c :: rest -> with_child n c (fun child -> pset_value child rest v)

(* No intermediate creation: an absent path is a no-op, deleting the
   root empties it. *)
let pdelete_subtree n path =
  match path with
  | [] -> empty_pnode
  | _ ->
    let rec go n = function
      | [] -> assert false (* non-empty by the match above *)
      | [ base ] -> { n with pchildren = Smap.remove base n.pchildren }
      | c :: rest ->
        let kids = Smap.update c (Option.map (fun child -> go child rest)) n.pchildren in
        if kids == n.pchildren then n else { n with pchildren = kids }
    in
    go n path

let rec pof_tree (Tree t) =
  {
    pvalue = t.tvalue;
    pchildren =
      List.fold_left
        (fun m (label, sub) -> Smap.add label (pof_tree sub) m)
        Smap.empty t.tchildren;
  }

let pgraft n path tr =
  match path with
  | [] -> pof_tree tr
  | _ ->
    let rec go n = function
      | [] -> assert false
      | [ base ] -> { n with pchildren = Smap.add base (pof_tree tr) n.pchildren }
      | c :: rest -> with_child n c (fun child -> go child rest)
    in
    go n path

let rec psnapshot ?depth n =
  let descend =
    match depth with
    | None -> Some None
    | Some 0 -> None
    | Some d -> Some (Some (d - 1))
  in
  let children =
    match descend with
    | None -> []
    | Some depth ->
      (* Map bindings come out sorted, which is the tree invariant. *)
      Smap.fold
        (fun label child acc ->
          ( label,
            match depth with
            | None -> psnapshot child
            | Some d -> psnapshot ~depth:d child )
          :: acc)
        n.pchildren []
      |> List.rev
  in
  Tree { tvalue = n.pvalue; tchildren = children }

(* A child map from its bindings in wire order.  Strictly ascending
   labels (what [codec_pnode] writes) build it in linear time, by
   unions of disjoint halves; any other order falls back to adding the
   bindings one by one, so a repeated label keeps its last binding, as
   [pof_tree] does. *)
let smap_of_bindings bs =
  let n = Array.length bs in
  let rec ascending i =
    i >= n || (String.compare (fst bs.(i - 1)) (fst bs.(i)) < 0 && ascending (i + 1))
  in
  if ascending 1 then
    let rec build lo hi =
      match hi - lo with
      | 0 -> Smap.empty
      | 1 -> Smap.singleton (fst bs.(lo)) (snd bs.(lo))
      | len ->
        let mid = lo + (len / 2) in
        Smap.union (fun _ l _ -> Some l) (build lo mid) (build mid hi)
    in
    build 0 n
  else Array.fold_left (fun m (label, child) -> Smap.add label child m) Smap.empty bs

(* Pickled straight from the maps, whose bindings come out sorted: the
   bytes of [psnapshot n] under [codec_tree], so equal stores give
   equal checkpoints, without building the exchange tree. *)
let codec_pnode =
  P.conv ~name:"ns.pnode" Fun.id Fun.id
    (node_codec
       ~children:
         (P.collection ~length:Smap.cardinal
            ~iter:(fun f m -> Smap.iter (fun label child -> f (label, child)) m)
            ~of_array:smap_of_bindings)
       ~value:(fun n -> n.pvalue)
       ~kids:(fun n -> n.pchildren)
       ~make:(fun pvalue pchildren -> { pvalue; pchildren }))

let pchildren_labels n = Smap.fold (fun l _ acc -> l :: acc) n.pchildren [] |> List.rev

let pfold_bindings ?(prune = fun _ -> true) n ~init ~f =
  let rec go prefix n acc =
    Smap.fold
      (fun label child acc ->
        let path = prefix @ [ label ] in
        if prune path then go path child (f acc path child.pvalue) else acc)
      n.pchildren acc
  in
  go [] n init

let rec pcount_nodes n =
  Smap.fold (fun _ child acc -> acc + pcount_nodes child) n.pchildren 1

let rec pweight_bytes n =
  let own = match n.pvalue with None -> 0 | Some v -> String.length v in
  Smap.fold
    (fun label child acc -> acc + String.length label + pweight_bytes child)
    n.pchildren own

let rec pp_tree ppf (Tree t) =
  Format.fprintf ppf "@[<hv 2>{";
  (match t.tvalue with
  | Some v -> Format.fprintf ppf "=%S" v
  | None -> ());
  List.iter
    (fun (label, sub) -> Format.fprintf ppf "@ %s:%a" label pp_tree sub)
    t.tchildren;
  Format.fprintf ppf "}@]"
