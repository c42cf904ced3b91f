(** The name server's in-memory data structure and its pure operations.

    The paper's name server keeps "a tree of hash tables.  The tables
    are indexed by strings, and deliver values that are further hash
    tables" (§3).  Here the tree is persistent instead: each node has
    an optional string value and a string map of children, so the
    structure is a general name-to-value mapping whose values are trees
    with string-labelled arcs.

    An update builds the next version by copying only the path it
    touches (O(depth · log fanout)), sharing every untouched subtree
    with the previous version.  That makes versions immutable — the
    property the lock-free read path ([read_path = `Epoch]) and
    concurrent checkpoints rely on: a published root can be read from
    any domain with no lock while the writer builds its successor. *)

type tree = Tree of { tvalue : string option; tchildren : (string * tree) list }
(** The exchange representation used in update parameters, exports,
    and over RPC.  Children are kept sorted by label so equal trees
    have equal pickles. *)

val codec_tree : tree Sdb_pickle.Pickle.t
val leaf : string option -> tree
val tree : ?value:string -> (string * tree) list -> tree

module Smap : Map.S with type key = string

type pnode = { pvalue : string option; pchildren : pnode Smap.t }

val empty_pnode : pnode
val codec_pnode : pnode Sdb_pickle.Pickle.t
(** The state's pickle: the bytes and fingerprint of {!codec_tree} on
    [psnapshot n], written straight from the maps, so equal stores give
    equal bytes.  Restores build each child map in linear time when its
    labels ascend strictly; otherwise the last binding of a label wins,
    as in {!pof_tree}. *)

val pfind : pnode -> Name_path.t -> pnode option
val pmem : pnode -> Name_path.t -> bool

val pensure : pnode -> Name_path.t -> pnode
(** The root with the path present (valueless intermediates created). *)

val pset_value : pnode -> Name_path.t -> string option -> pnode
val pdelete_subtree : pnode -> Name_path.t -> pnode
(** Deleting the root empties it; an absent path is a no-op. *)

val pgraft : pnode -> Name_path.t -> tree -> pnode
(** Replace the subtree at the path with [tree], creating
    intermediates. *)

val pof_tree : tree -> pnode
[@@sdb.check.allow
  "dead-export: a reference: suites look values up in trees fetched \
   over RPC"]
val psnapshot : ?depth:int -> pnode -> tree
(** [depth] bounds descent; [depth:0] is just the node's value. *)

val pchildren_labels : pnode -> string list
(** Sorted. *)

val pfold_bindings :
  ?prune:(Name_path.t -> bool) -> pnode ->
  init:'acc -> f:('acc -> Name_path.t -> string option -> 'acc) -> 'acc
(** Depth-first fold over every node (root excluded), visiting children
    in sorted label order.  [prune p] returning [false] skips the node
    at [p] and its whole subtree — how glob search avoids walking the
    world. *)

val pcount_nodes : pnode -> int
val pweight_bytes : pnode -> int

val equal_tree : tree -> tree -> bool
[@@sdb.check.allow
  "dead-export: a reference the name-server suites compare trees \
   with"]
val pp_tree : Format.formatter -> tree -> unit
