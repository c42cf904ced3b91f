(** A page-structured hash file — the "custom designed data
    representation in a disk file" of the §2 ad-hoc technique, shared
    by {!Adhoc_db} (which overwrites pages in place with no commit
    protocol) and {!Atomic_db} (which redo-logs page images first).

    Layout: page 0 is the header; pages 1..buckets are hash buckets;
    further pages are overflow pages chained from their bucket.  A page
    holds length-prefixed records and a next-page link.  Records never
    span pages; a record larger than a page is rejected.

    The store itself performs no recovery: callers decide when and how
    page images reach the disk ({!apply}), which is precisely where the
    two baselines differ. *)

type t

exception Corrupt of string
(** Raised by navigation ({!get}, {!iter}, the [prepare_*] planners)
    when a page decodes to nonsense — the store needs restoring from a
    backup.  {!verify} reports this as a result instead. *)

val open_ :
  Sdb_storage.Fs.t -> file:string -> ?page_size:int -> ?buckets:int -> unit ->
  (t, string) result
(** Open or create.  Fails if an existing file's header disagrees or is
    unreadable. *)

val npages : t -> int
[@@sdb.check.allow
  "dead-export: a reference the overflow-chain test compares \
   against"]

val get : t -> string -> string option
(** Walks the bucket chain, reading pages from disk ("perusing a small
    number of directly accessed pages").  Raises {!Sdb_storage.Fs.Read_error}
    on a damaged page. *)

type page_image = { index : int; bytes : string }

val prepare_set : t -> string -> string -> page_image list
(** The page images that would store the binding: usually one page;
    two (new overflow + chain link) when the bucket overflows.
    Raises [Invalid_argument] if the record cannot fit a page. *)

val prepare_remove : t -> string -> page_image list
(** Empty when the key is absent. *)

val apply : t -> sync:bool -> page_image list -> unit
(** Write the images in place (one positional write each), then one
    fsync when [sync]. *)

val sync : t -> unit
(** Force the data file to stable storage. *)

val iter : t -> (string -> string -> unit) -> unit
val length : t -> int

val verify : t -> (unit, string) result
(** Full scan: decodes every reachable page, detecting damaged pages,
    malformed records, broken or cyclic chains. *)

val close : t -> unit
