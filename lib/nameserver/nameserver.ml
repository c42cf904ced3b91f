module P = Sdb_pickle.Pickle

type update =
  | Set_value of Name_path.t * string option
  | Write_subtree of Name_path.t * Ns_data.tree
  | Delete_subtree of Name_path.t
  | Create of Name_path.t

let codec_path = P.conv ~name:"ns.path" Fun.id Fun.id (P.list P.string)

let codec_update =
  P.variant ~name:"ns.update"
    [
      P.case "set_value"
        (P.pair codec_path (P.option P.string))
        (function Set_value (p, v) -> Some (p, v) | _ -> None)
        (fun (p, v) -> Set_value (p, v));
      P.case "write_subtree"
        (P.pair codec_path Ns_data.codec_tree)
        (function Write_subtree (p, t) -> Some (p, t) | _ -> None)
        (fun (p, t) -> Write_subtree (p, t));
      P.case "delete_subtree" codec_path
        (function Delete_subtree p -> Some p | _ -> None)
        (fun p -> Delete_subtree p);
      P.case "create" codec_path
        (function Create p -> Some p | _ -> None)
        (fun p -> Create p);
    ]

(* The state is the persistent tree: [apply] path-copies, building the
   next version in O(depth · log fanout) and sharing everything it did
   not touch with the previous one.  That is what lets the engine
   publish versions to the lock-free read path (config.read_path =
   `Epoch) and pickle a checkpoint's snapshot while updates go on. *)
module App = struct
  type state = Ns_data.pnode
  type nonrec update = update

  let name = "nameserver"
  let codec_state = Ns_data.codec_pnode
  let codec_update = codec_update
  let init () = Ns_data.empty_pnode

  let apply state u =
    match u with
    | Set_value (p, v) -> Ns_data.pset_value state p v
    | Write_subtree (p, t) -> Ns_data.pgraft state p t
    | Delete_subtree p -> Ns_data.pdelete_subtree state p
    | Create p -> Ns_data.pensure state p
end

module Db = Smalldb.Make (App)

type t = Db.t

let open_ ?config fs = Db.open_ ?config fs
let open_exn ?config fs = Db.open_exn ?config fs
let install ?config fs ~lsn image = Db.install ?config fs ~lsn image
let db t = t

(* Enquiries: pure lookups in the virtual memory structure. *)

let lookup t path =
  Db.query t (fun root ->
      match Ns_data.pfind root path with
      | Some n -> n.Ns_data.pvalue
      | None -> None)

let exists t path = Db.query t (fun root -> Ns_data.pmem root path)

let list_children t path =
  Db.query t (fun root ->
      Option.map Ns_data.pchildren_labels (Ns_data.pfind root path))

let export ?depth t path =
  Db.query t (fun root ->
      match Ns_data.pfind root path with
      | None -> None
      | Some n -> Some (Ns_data.psnapshot ?depth n))

let count_nodes t = Db.query t Ns_data.pcount_nodes

let enumerate t prefix =
  Db.query t (fun root ->
      match Ns_data.pfind root prefix with
      | None -> []
      | Some node ->
        Ns_data.pfold_bindings node ~init:[] ~f:(fun acc rel value ->
            (prefix @ rel, value) :: acc)
        |> List.rev)

let find t glob =
  Db.query t (fun root ->
      Ns_data.pfold_bindings root
        ~prune:(fun path -> Name_glob.prefix_viable glob path)
        ~init:[]
        ~f:(fun acc path value ->
          if Name_glob.matches glob path then (path, value) :: acc else acc)
      |> List.rev)
let snapshot_with_lsn t = Db.query_with_lsn t (fun root -> Ns_data.psnapshot root)
let updates_since t from = Db.log_suffix t ~from

(* Updates *)

let set_value t path v = Db.update t (Set_value (path, v))
let write_subtree t path tree = Db.update t (Write_subtree (path, tree))
let delete_subtree t path = Db.update t (Delete_subtree path)
let create t path = Db.update t (Create path)

let set_value_checked t path v =
  let precondition root =
    match Name_path.parent path with
    | None -> Ok () (* the root always exists *)
    | Some parent ->
      if Ns_data.pmem root parent then Ok ()
      else Error (Printf.sprintf "parent %s is not bound" (Name_path.to_string parent))
  in
  Db.update_checked t ~precondition (Set_value (path, v))

let delete_subtree_checked t path =
  let precondition root =
    if Ns_data.pmem root path then Ok ()
    else Error (Printf.sprintf "%s is not bound" (Name_path.to_string path))
  in
  Db.update_checked t ~precondition (Delete_subtree path)

let compare_and_set t path ~expected v =
  let precondition root =
    let current =
      match Ns_data.pfind root path with
      | Some n -> n.Ns_data.pvalue
      | None -> None
    in
    if Option.equal String.equal current expected then Ok ()
    else
      Error
        (Printf.sprintf "%s: expected %s, found %s" (Name_path.to_string path)
           (Option.value expected ~default:"<unbound>")
           (Option.value current ~default:"<unbound>"))
  in
  Db.update_checked t ~precondition (Set_value (path, v))

(* Maintenance *)

let checkpoint = Db.checkpoint
let stats = Db.stats
let health = Db.health

(* The heartbeat enquiry: cheap enough to answer under load (one stats
   read, no tree walk) and informative enough for a failure detector —
   the LSN lets the prober watch a peer's progress, not just its
   liveness. *)
let ping t = (stats t).Smalldb.lsn

(* The canonical digest of a state: its pickle, whose children come
   out in label order, so equal trees give equal strings.  A published
   root never changes, so it is encoded after the query has let go of
   it. *)
let state_digest root = Digest.string (P.encode Ns_data.codec_pnode root)

let digest t = state_digest (Db.query t Fun.id)
let scrub ?repair t = Db.scrub ?repair ~digest:state_digest t

let start_scrubber ?interval ?repair t =
  Db.start_scrubber ?interval ?repair ~digest:state_digest t

let fold_log t ~init ~f = Db.fold_log t ~init ~f
let close = Db.close
