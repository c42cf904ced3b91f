(** The name server built on the small-database engine.

    "The name server offers its clients a general purpose name-to-value
    mapping, where the names are strings and the values are trees whose
    arcs are labelled by strings.  It provides a variety of enquiry and
    browsing operations, and update operations for any set of
    sub-trees" (§3).

    Enquiries are pure virtual-memory lookups; every update is one log
    write.  [apply] is total — updates that need preconditions (e.g.
    "the name must already be bound") go through the [_checked]
    variants, which verify against the live state under the update lock
    before anything reaches the disk. *)

type update =
  | Set_value of Name_path.t * string option
      (** bind (or unbind) the value at a name, creating intermediate
          nodes as needed *)
  | Write_subtree of Name_path.t * Ns_data.tree
      (** replace the whole subtree at a name *)
  | Delete_subtree of Name_path.t
  | Create of Name_path.t  (** ensure a (valueless) node exists *)

val codec_update : update Sdb_pickle.Pickle.t

module App :
  Smalldb.APP with type state = Ns_data.pnode and type update = update
(** The state is the {e persistent} tree ({!Ns_data.pnode}): [apply]
    path-copies, so each committed version is immutable and shares all
    untouched subtrees with its predecessor — the property the
    lock-free read path ([read_path = `Epoch]) and checkpoints pickling
    with updates running rely on. *)

module Db : module type of Smalldb.Make (App)

type t

val open_ : ?config:Smalldb.config -> Sdb_storage.Fs.t -> (t, string) result
val open_exn : ?config:Smalldb.config -> Sdb_storage.Fs.t -> t

val install :
  ?config:Smalldb.config -> Sdb_storage.Fs.t -> lsn:int -> string -> (t, string) result
(** {!Smalldb.Make.install}: open an empty store holding another
    replica's [Db.image], at that image's LSN. *)

val db : t -> Db.t
(** The underlying engine (used by replication and benchmarks). *)

(** {1 Enquiries} *)

val lookup : t -> Name_path.t -> string option
(** The value bound at the name, if the name exists and has one. *)

val exists : t -> Name_path.t -> bool

val list_children : t -> Name_path.t -> string list option
(** Sorted labels; [None] when the name itself is unbound. *)

val export : ?depth:int -> t -> Name_path.t -> Ns_data.tree option
(** Browse: a snapshot of the subtree. *)

val count_nodes : t -> int

val enumerate : t -> Name_path.t -> (Name_path.t * string option) list
(** Every name under the given prefix (the prefix itself excluded),
    depth-first in sorted order, with its bound value. *)

val find : t -> Name_glob.t -> (Name_path.t * string option) list
(** All names matching a glob pattern, with tree-walk pruning: only
    viable prefixes are descended into. *)

val snapshot_with_lsn : t -> Ns_data.tree * int
(** A full export paired with the LSN it reflects, taken under one
    lock hold — the unit of replica (re)synchronisation (§4). *)

val updates_since : t -> int -> (int * update) list option
(** Committed updates with LSN ≥ the argument, when the current log
    still covers them; [None] after a checkpoint has absorbed them. *)

(** {1 Updates} *)

val set_value : t -> Name_path.t -> string option -> unit
val write_subtree : t -> Name_path.t -> Ns_data.tree -> unit
val delete_subtree : t -> Name_path.t -> unit
val create : t -> Name_path.t -> unit

val set_value_checked :
  t -> Name_path.t -> string option -> (unit, string) result
[@@sdb.check.allow
  "dead-export: library surface: the name server's conditional \
   update; test_nameserver's checked-updates case calls it"]
(** Requires the name's parent to exist already. *)

val delete_subtree_checked : t -> Name_path.t -> (unit, string) result
[@@sdb.check.allow
  "dead-export: library surface: the name server's conditional \
   update; test_nameserver's checked-updates case calls it"]
(** Requires the name to exist. *)

val compare_and_set :
  t -> Name_path.t -> expected:string option -> string option ->
  (unit, string) result
(** Atomic test-and-set on the bound value, the building block the
    paper's replica reconciliation uses. *)

(** {1 Maintenance} *)

val checkpoint : t -> unit
val stats : t -> Smalldb.stats

val health : t -> Smalldb.health
(** [`Healthy], [`Degraded reason] (read-only after disk-full — all
    enquiries above still work), or [`Poisoned]. *)

val ping : t -> int
(** Heartbeat enquiry: the current committed LSN.  Deliberately the
    cheapest possible round trip (no tree walk, no pickling), so the
    failure detector's probes stay meaningful under load — a ping that
    answers proves the server is serving, and the LSN shows whether it
    is also progressing. *)

val digest : t -> string
(** Canonical digest of the live state (equal trees — equal digests),
    used to compare replicas and to cross-check scrubs. *)

val scrub : ?repair:bool -> t -> Smalldb.scrub_report
(** {!Smalldb.Make.scrub} with the canonical tree digest wired in, so
    the shadow replay is cross-checked against memory. *)

val start_scrubber : ?interval:float -> ?repair:bool -> t -> unit
(** Background scrub thread (see {!Smalldb.Make.start_scrubber}). *)

val fold_log : t -> init:'acc -> f:('acc -> int -> update -> 'acc) -> 'acc
val close : t -> unit
