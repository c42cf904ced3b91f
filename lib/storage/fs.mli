(** File-system abstraction used by the log and checkpoint machinery.

    The paper's design needs exactly four properties from its host file
    system (§3, §4):

    - appending to a file and forcing it with fsync is the commit point;
    - renaming a file is atomic with respect to crashes;
    - a page that was being written when the system stopped reports an
      error when read back (this is how partial log entries are
      detected);
    - files can be created, listed, and deleted.

    [Fs.t] captures those properties behind a record of operations so
    the engine runs identically over a real directory ({!Real_fs}) and
    over the simulated, fault-injectable store ({!Mem_fs}) that the
    crash-recovery tests and the 1987 cost model use. *)

exception Read_error of { file : string; offset : int; reason : string }
(** A damaged or torn region was read.  Matches the paper's assumption
    that disks "give either correct data or an error". *)

exception
  Io_error of {
    op : string;  (** the failing operation ("write", "fsync", "open", …) *)
    file : string option;
    errno : Unix.error option;
        (** the underlying cause when one is known (real or injected),
            so callers can classify transient vs permanent failures
            without string matching *)
    message : string;
  }
(** Any other failure: missing file, handle used after close or crash,
    a device error.  Raise with {!io_fail}. *)

exception No_space of { file : string; needed : int; available : int }
(** The write would exceed the store's byte-capacity budget (disk
    full).  Guaranteed all-or-nothing by {!Mem_fs} and {!Fault_fs}: the
    failing write left the file exactly as it was, so the engine can
    reject the one update cleanly instead of poisoning itself. *)

val io_fail : ?op:string -> ?file:string -> ?errno:Unix.error -> string -> 'a
(** [raise (io_error …)]. *)

val errno_transient : Unix.error -> bool
[@@sdb.check.allow
  "dead-export: a reference the fault tests classify injected errno \
   values with"]
(** True for errnos that name a retryable condition ([EINTR], [EAGAIN],
    [EWOULDBLOCK]) rather than a sick device. *)

val describe_exn : exn -> string
(** One-line rendering of {!Read_error} / {!Io_error} / {!No_space}
    (falls back to [Printexc.to_string]). *)

module Counters : sig
  (** Disk-operation accounting.  The cost model converts these into
      modelled 1987 times; benches reset them around measured
      sections. *)

  type t = {
    mutable data_writes : int;  (** write calls on file handles *)
    mutable bytes_written : int;
    mutable syncs : int;  (** fsync calls *)
    mutable data_reads : int;
    mutable bytes_read : int;
    mutable creates : int;
    mutable renames : int;
    mutable removes : int;
  }

  val create : unit -> t
  val reset : t -> unit
  val copy : t -> t
  val diff : after:t -> before:t -> t
end

type reader = {
  r_file : string;
  r_size : int;
  r_read : bytes -> int -> int -> int;
      (** [r_read buf pos len] reads up to [len] bytes sequentially;
          returns 0 at end of file.  Raises {!Read_error} when the next
          bytes lie in a damaged region. *)
  r_seek : int -> unit;
      (** Absolute reposition; used to skip past damaged log entries. *)
  r_close : unit -> unit;
}

type writer = {
  w_file : string;
  w_write : string -> unit;  (** append *)
  w_sync : unit -> unit;  (** force to stable storage *)
  w_close : unit -> unit;
}

type random = {
  rw_file : string;
  pread : off:int -> bytes -> int -> int -> int;
      (** positional read; 0 at EOF; raises {!Read_error} on damage *)
  pwrite : off:int -> string -> unit;
      (** positional overwrite/extend (zero-fills any gap); volatile
          until [rw_sync] — and, unlike appends, an in-place overwrite
          puts the {e old} bytes at risk in a crash, which is exactly
          the fragility §2 attributes to ad-hoc update-in-place
          schemes *)
  rw_sync : unit -> unit;
  rw_size : unit -> int;
  rw_close : unit -> unit;
}

type t = {
  fs_name : string;
  list_files : unit -> string list;
  exists : string -> bool;
  file_size : string -> int;
  open_reader : string -> reader;
  create : string -> writer;  (** create or truncate *)
  open_append : string -> writer;  (** create if missing *)
  open_random : string -> random;  (** create if missing *)
  rename : string -> string -> unit;  (** atomic, replaces destination *)
  remove : string -> unit;  (** idempotent *)
  truncate : string -> int -> unit;
      (** [truncate file len] cuts the file to [len] bytes; used after
          recovery to drop a torn log tail before appending resumes. *)
  counters : Counters.t;
}

val read_file : t -> string -> string
(** Whole-file read.  Raises {!Read_error} or {!Io_error}. *)

val write_file : t -> string -> string -> unit
(** Create, write, sync, close. *)

val prefixed : t -> string -> t
(** [prefixed fs p] is the view of [fs] holding only the files whose
    names start with [p], with [p] stripped: [list_files] lists just
    those, and every other operation prepends [p] to the name it is
    given.  Several engines can thus share one directory without
    seeing each other's files: an engine's restart scan deletes the
    listed files it finds stale (every one of them, when the store's
    creation never committed).  Shares [fs]'s counters; file names
    inside exceptions and handles are the full, prefixed ones. *)
