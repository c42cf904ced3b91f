(** CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.

    Used by the log ({!Wal}) and checkpoint framing to detect torn or
    corrupted disk writes on backends that cannot report partial-page
    read errors themselves (real file systems).  The paper relies on the
    disk hardware reporting an error for a partially written page; a CRC
    over each frame gives the same detection property on commodity
    files. *)

type t = int32
(** A running CRC state (also the final digest). *)

val digest_bytes : bytes -> pos:int -> len:int -> t
(** One-shot digest of a byte range. *)

val digest_string : string -> t
(** One-shot digest of a whole string. *)

val to_int32 : t -> int32
[@@sdb.check.allow
  "dead-export: a reference the known-vector test compares digests \
   against"]
val equal : t -> t -> bool
