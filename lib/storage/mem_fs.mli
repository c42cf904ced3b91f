(** In-memory simulated file system with crash and media-fault injection.

    The store models exactly the disk behaviour the paper's reliability
    argument (§4) depends on:

    - data appended to a file is {e volatile} until [w_sync]; a crash
      discards volatile data — except that, page by page, the operating
      system may already have flushed some of it;
    - pages (sectors) are written atomically, but a page that was in
      flight at the instant of the crash may be {e torn}: reading it
      afterwards raises {!Fs.Read_error} ("a partially written page
      will report an error when it is read");
    - bytes that were covered by a completed fsync are never lost or
      damaged by a crash;
    - metadata operations (create, rename, remove) are atomic and
      immediately durable, like a journalled Unix file system;
    - media damage ("hard errors", §4) can be injected on any byte
      range; reads covering it raise {!Fs.Read_error}.

    Crashes are injected either explicitly ({!crash}) or by giving an
    operation budget ({!set_crash_after}): the [n]-th subsequent
    mutating operation raises {!Crash} {e before} executing, after
    applying crash semantics to the volatile state.  Sweeping [n]
    across a workload visits every crash point the engine can
    experience, which is how the E10 experiment and the recovery test
    suites work. *)

exception Crash
(** Raised by the operation that exhausts the crash budget. *)

type store

type crash_mode =
  | Clean
      (** every write since the covering fsync reverts to its
          pre-image; no torn pages — the kindest possible crash *)
  | Torn
      (** per dirty page, independently: the new bytes persist, revert
          to the pre-image, or tear (reads of the written range raise
          {!Fs.Read_error}).  Bytes not written since their covering
          fsync are always preserved; bytes {e overwritten in place}
          after an fsync are genuinely at risk. *)

val create_store : ?page_size:int -> ?seed:int -> unit -> store
(** [page_size] defaults to 512 (a 1987 disk sector); [seed] drives the
    deterministic choice of page fates in [Torn] crashes. *)

val fs : store -> Fs.t
(** The file-system view.  Valid across crashes (the "machine" reboots
    with the same disk); handles open at crash time are invalidated. *)

val set_crash_after : store -> ops:int -> mode:crash_mode -> unit
(** Arm the crash budget: the [ops]-th subsequent mutating operation
    (write, sync, create, rename, remove) crashes. *)

val disarm_crash : store -> unit

val crash : store -> mode:crash_mode -> unit
(** Apply crash semantics immediately. *)

val mutating_ops : store -> int
[@@sdb.check.allow
  "dead-export: crash-sweep hook: the crash suites enumerate crash \
   points by it"]
(** Mutating operations performed so far (the crash-point space). *)

val damage : store -> file:string -> offset:int -> len:int -> unit
(** Inject a hard error: subsequent reads covering the range raise
    {!Fs.Read_error}.  Raises {!Fs.Io_error} if the file is absent. *)

val total_bytes : store -> int
(** Sum of file sizes — disk-space accounting for E12. *)

val set_capacity : store -> int option -> unit
[@@sdb.check.allow
  "dead-export: fault injection: disk-full tests cap the in-memory \
   store"]
(** [set_capacity s (Some bytes)] caps the store at [bytes] total: a
    write whose growth would push {!total_bytes} over the budget raises
    {!Fs.No_space} {e before mutating anything} (all-or-nothing, so the
    engine can reject the one update cleanly).  [None] (the default)
    removes the limit.  Rewrites inside a file's current extent are
    always allowed — only growth is charged. *)

val file_names : store -> string list
[@@sdb.check.allow
  "dead-export: a reference the accounting test compares the store's \
   files against"]
