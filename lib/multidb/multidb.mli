(** Partitioned databases — the paper's §7 proposal, built from one
    {!Smalldb} engine per partition.

    "It seems likely that many larger databases (for example the
    directories of a large file system) could be handled by considering
    them as multiple separate databases for the purpose of writing
    checkpoints.  In that case, we could either use multiple log files
    or a single log file with more complicated rules for flushing the
    log."

    This takes the first option.  Partition [k] is an ordinary engine
    over the view [Fs.prefixed fs "p<k>."] of one directory, with its
    own checkpoint, log and version file, so each partition checkpoints
    {e separately}: the update-blocking window is proportional to a
    partition, not the whole database, and a restart replays only each
    partition's own log.  Every engine feature — group commit, degraded
    mode, scrubbing, the epoch read route, the failure taxonomy — holds
    per partition. *)

module Make (App : Smalldb.APP) : sig
  module Db : module type of struct
    include Smalldb.Make (App)
  end

  type t

  val open_ :
    ?config:Smalldb.config -> partitions:int -> Sdb_storage.Fs.t ->
    (t, string) result
  (** Create (with [partitions] empty states) or recover.  [config]
      applies to every partition; its [policy] is per partition, so
      [Every_n_updates n] checkpoints a partition after [n] of its own
      updates.  The partition count is fixed at creation: partition 0
      is created last, so its files mark a finished creation. *)

  val open_exn :
    ?config:Smalldb.config -> partitions:int -> Sdb_storage.Fs.t -> t

  val partition_count : t -> int

  val partition : t -> int -> Db.t
  (** The engine holding partition [k]: query, update and checkpoint it
      directly.  Raises [Invalid_argument] when [k] is out of range. *)

  val checkpoint_next : t -> unit
  (** Checkpoint the next partition, round-robin from partition 0 at
      open: calling this periodically keeps every partition's replay
      suffix bounded without ever pickling the whole database at once. *)

  val checkpoint_all : t -> unit
  val close : t -> unit
end
