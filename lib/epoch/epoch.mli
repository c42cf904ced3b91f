(** Epoch-published snapshots: the engine's lock-free read path.

    {!Epoch_core} instantiated over [Stdlib.Atomic], with the sanitizer
    bracketing hooks and the registry metrics wired in.  One ['a t]
    publishes one store root; the engine's writer calls {!publish}
    inside its Exclusive window, and {!read} serves a query against the
    published version with no lock acquisition — one compare-and-set to
    enter an epoch, one to leave.

    The payload must be {e immutable} (persistent, path-copied): a
    published version is shared with every concurrent reader, in other
    domains included, so mutating it is a data race.  This is the same
    contract [Smalldb.APP.apply] documents for every application state. *)

type 'a t

val create : ?slots:int -> name:string -> lsn:int -> 'a -> 'a t
(** A store publishing the given initial version.  [slots] (default 64,
    rounded up to a power of two) is the reader-slot count; readers
    hash to a slot by domain id, so slots only contend when domains
    collide mod [slots].  [name] labels the metrics and sanitizer
    reports.  Creating a store (re)registers its metrics collector
    under ["sdb_epoch:"^name]. *)

val read : 'a t -> ('a -> 'b) -> 'b
(** Enter an epoch, run [f] against the published version, exit.  The
    epoch is released on any exit, exceptional included.  [f] must not
    block on I/O (the sanitizer enforces this) and must not call
    {!publish}. *)

val read_with_lsn : 'a t -> ('a -> 'b) -> 'b * int
(** Like {!read}, also returning the LSN the version reflects — the
    payload and the LSN are from the {e same} version, the atomicity
    the locked route gets from holding Shared across both reads. *)

val publish : 'a t -> lsn:int -> 'a -> unit
(** Install the next version and retire the displaced one.  Single
    writer only: the engine calls this inside the Exclusive window, so
    publication order is commit order. *)

val reclaim : 'a t -> int
(** Reclaim whatever retired versions have become safe (also runs on
    every {!publish}); single writer only.  Returns the number freed. *)

val unsafe_reclaim_all : 'a t -> int
(** Reclaim ignoring reader slots — deliberately broken, for tests that
    verify the use-after-reclaim detector actually fires. *)

(** {1 Inspection} (racy snapshots — metrics, tests) *)

val active_readers : 'a t -> int
val retired_versions : 'a t -> int
val reclaimed_total : 'a t -> int
val advance_total : 'a t -> int
val reclaim_lag : 'a t -> int
