(** The versioned checkpoint/log directory protocol (§3).

    In the quiescent state the directory contains a version-numbered
    checkpoint ([checkpoint35]), a matching log ([logfile35]) and a
    file [version] containing "35".  Switching to a new checkpoint
    writes [checkpoint36], creates an empty [logfile36], then writes
    "36" to [newversion] — the commit point, after the appropriate
    fsyncs.  Finally the old triple is deleted and [newversion] is
    renamed to [version].

    On restart the version number is read "from [newversion] if the
    file exists and has a valid version number in it, or from [version]
    otherwise", redundant files are deleted, and the half-finished
    switch (if any) is completed.

    With [retain_previous:true] the previous generation's checkpoint
    and log are kept, enabling recovery from a hard error in the
    current checkpoint by reloading the previous checkpoint and
    replaying both logs (§4). *)

type generation = {
  version : int;
  checkpoint_file : string;
  log_file : string;
}

type recovery = {
  current : generation;
  previous : generation option;
      (** the retained previous generation, when its files survive *)
  removed_files : string list;
      (** stale or partial files deleted during the restart scan *)
  completed_switch : bool;
      (** true when a committed-but-unfinished switch was completed *)
}

val checkpoint_file : int -> string
(** ["checkpoint<N>"]. *)

val log_file : int -> string
(** ["logfile<N>"]. *)

val version_file : string
val newversion_file : string

val recover :
  ?archive_logs:bool -> retain_previous:bool -> Sdb_storage.Fs.t ->
  (recovery option, string) result
(** Scan the directory.  [Ok None] means a fresh store (no database
    yet); [Error _] means the store exists but no complete generation
    could be located.  [archive_logs] must match what {!commit} was
    called with, so that a crash mid-switch still preserves the audit
    trail. *)

val write_checkpoint : Sdb_storage.Fs.t -> version:int -> string -> unit
(** Create [checkpoint<version>], write the blob, fsync, close. *)

val commit :
  ?archive_logs:bool -> retain_previous:bool -> old_version:int option ->
  new_version:int -> Sdb_storage.Fs.t -> unit
(** The switch: requires [checkpoint<new_version>] and
    [logfile<new_version>] to already exist, fully synced.  Writes and
    syncs [newversion] (the commit point), deletes superseded
    generations per the retention policy, then renames [newversion] to
    [version].

    With [archive_logs:true] superseded log files are renamed to
    [archive-logfile<N>] instead of deleted — §4's "the log files form
    a complete audit trail for the database, and could be retained if
    desired". *)

val archived_logs : Sdb_storage.Fs.t -> (int * string) list
(** The retained audit trail, sorted by generation. *)

val disk_files : Sdb_storage.Fs.t -> (string * int) list
(** All files with sizes — the E12 space accounting. *)
