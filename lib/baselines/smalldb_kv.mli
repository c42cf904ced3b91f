(** The paper's design instantiated as a key-value store, so E7 can
    benchmark it against the §2 alternatives behind the same interface.

    Enquiries are lookups in an in-memory persistent map; an update is
    one log write (pickled parameters, one fsync); {!checkpoint}
    pickles the whole map into a fresh generation. *)

include Kv_intf.S

type update = Set of string * string | Remove of string

val codec_update : update Sdb_pickle.Pickle.t

module Smap : Map.S with type key = string

module App : Smalldb.APP with type state = string Smap.t and type update = update

module Db : module type of Smalldb.Make (App)

val open_with : ?config:Smalldb.config -> Sdb_storage.Fs.t -> (t, string) result
val checkpoint : t -> unit
val db : t -> Db.t
