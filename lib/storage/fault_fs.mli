(** Fault-injecting decorator over any {!Fs.t}.

    Wraps a file system (the in-memory {!Mem_fs} store or a real
    directory alike) and injects the "hard error" half of the paper's
    §4 failure model, deterministically:

    - scheduled one-shot faults: the [n]-th read / write / fsync raises
      {!Fs.Read_error} (reads) or {!Fs.Io_error} (writes, syncs) with a
      chosen errno, so transient ([EINTR]) and permanent ([EIO]) causes
      are distinguishable in structured form;
    - seed-driven random faults at a configurable per-operation rate —
      the chaos torture test sweeps seeds over this;
    - injected latency, to surface timing windows;
    - a byte-capacity budget: a write whose growth would exceed it
      raises {!Fs.No_space} {e before} reaching the underlying store
      (all-or-nothing, like {!Mem_fs.set_capacity}).

    Faults are injected {e before} the wrapped operation runs, so a
    faulted write never partially mutates the store.  Everything not
    faulted passes straight through, including the inner counters. *)

type op = [ `Read | `Write | `Sync ]
(** The three fault sites: data reads ([r_read]/[pread]), data writes
    ([w_write]/[pwrite]), and fsyncs ([w_sync]/[rw_sync]). *)

type t
(** Fault controller for one wrapped file system. *)

val wrap : ?seed:int -> Fs.t -> t * Fs.t
(** [wrap ?seed inner] returns the controller and the decorated view.
    [seed] (default 0) drives the random-rate fault choices only;
    scheduled faults are exact. *)

val fail_nth :
  t -> op:op -> n:int -> ?count:int -> ?errno:Unix.error -> unit -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the disk-fault and crash suites \
   drive the decorator through it"]
(** Schedule: counting from now, the [n]-th operation of kind [op] and
    the [count - 1] (default 0) following ones fail.  [errno] defaults
    to [EIO] (permanent); pass [EINTR] for a transient cause (see
    {!Fs.errno_transient}). *)

val set_fault_rate : t -> op:op -> float -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the disk-fault and crash suites \
   drive the decorator through it"]
(** Each operation of kind [op] independently fails with this
    probability (errno [EIO]), drawn from the seeded generator.
    [0.] (the default) disables. *)

val set_latency : t -> ?op:op -> float -> unit
(** Sleep this many seconds before every intercepted operation, or —
    with [~op] — only before operations of that one kind (e.g.
    [~op:`Sync] models a disk with a fast cache but a slow flush, the
    regime group commit is built for).  [0.] (the default) disables;
    calling without [~op] sets all three kinds at once. *)

val set_capacity : t -> int option -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the disk-fault and crash suites \
   drive the decorator through it"]
(** Byte budget across all files of the {e inner} store, measured by
    summing its file sizes.  Growth past the budget raises
    {!Fs.No_space} without touching the inner fs.  [None] disables. *)

val clear : t -> unit
[@@sdb.check.allow
  "dead-export: fault injection: the disk-fault and crash suites \
   drive the decorator through it"]
(** Drop all scheduled faults, rates, latency, and capacity. *)

val ops : t -> op:op -> int
[@@sdb.check.allow
  "dead-export: fault injection: the disk-fault and crash suites \
   drive the decorator through it"]
(** Operations of this kind seen so far (the fault-point space swept by
    the chaos test, mirroring {!Mem_fs.mutating_ops}). *)

val injected : t -> int
[@@sdb.check.allow
  "dead-export: fault injection: the disk-fault and crash suites \
   drive the decorator through it"]
(** Total faults injected so far (scheduled + random + no-space). *)
