(** Pickles: typed serialization combinators.

    This is the paper's "pickle" mechanism (§6): conversion between any
    strongly typed data structure and a representation suitable for
    storing in permanent disk files, including the identification of
    addresses so that shared sub-structures are written once and
    restored to shared structures in the new execution environment.

    Where the original is driven by the Modula-2+ garbage collector's
    runtime types, this implementation derives the same information
    from an explicit codec value ['a t] built with combinators.  Each
    codec carries a structural {!Descr.t}; the descriptor's fingerprint
    is stored in file headers so that reading data with a drifted type
    fails with a clear error rather than misinterpreting bits.

    Every value on the wire is preceded by a one-byte type tag, and
    variant cases and record arities are validated when read, so random
    corruption is overwhelmingly likely to be detected at the pickle
    layer even before the framing CRC is consulted.

    All read-side functions raise {!Error} on malformed input (or
    return [Error _] for the [_result] variants); they never return
    garbage values for detectably bad input. *)

exception Error of string
(** Malformed or type-incorrect pickled data. *)

type 'a t
(** A codec for values of type ['a]. *)

val descr : 'a t -> Descr.t
[@@sdb.check.allow
  "dead-export: a reference the descr-rendering test compares \
   against"]
val fingerprint : 'a t -> string
(** 16-byte binary fingerprint of the codec's wire format. *)

val fingerprint_hex : 'a t -> string
[@@sdb.check.allow
  "dead-export: a reference the fingerprint tests compare codecs by"]

(** {1 Primitive codecs} *)

val unit : unit t
val bool : bool t

val int : int t
(** Zig-zag varint; compact for small magnitudes of either sign. *)

val float : float t
val string : string t

(** {1 Compound codecs} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val list : 'a t -> 'a list t

val collection :
  length:('c -> int) ->
  iter:(('a -> unit) -> 'c -> unit) ->
  of_array:('a array -> 'c) ->
  'a t ->
  'c t
(** Any collection, as a {!list} on the wire: the same bytes and the
    same fingerprint as the list of the elements [iter] visits, in that
    order.  [length c] is that count (a mismatch raises {!Error} on
    write).  Reads pass the elements to [of_array] in wire order; a
    truncated or mis-tagged length raises {!Error}.  {!list} is this
    combinator over [List]. *)

val option : 'a t -> 'a option t
val result : 'a t -> 'e t -> ('a, 'e) result t

val hashtbl : 'k t -> 'v t -> ('k, 'v) Hashtbl.t t
[@@sdb.check.allow
  "dead-export: pickle package surface (Hashtbl state); test_pickle \
   round-trips it"]
(** Bindings are written in an unspecified order and restored with
    [Hashtbl.replace]; multi-bindings (shadowed keys) are not
    preserved. *)

val conv : name:string -> ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
(** [conv ~name to_wire of_wire base] maps a codec across an
    isomorphism.  [name] distinguishes the type in fingerprints. *)

(** {1 Variants} *)

type 'a case

val case : string -> 'b t -> ('a -> 'b option) -> ('b -> 'a) -> 'a case
(** [case name codec proj inj]: a constructor carrying a ['b].  [proj]
    recognises values of this case; [inj] rebuilds them. *)

val case0 : string -> 'a -> ('a -> bool) -> 'a case
(** A nullary constructor: [case0 name value recognise]. *)

val variant : name:string -> 'a case list -> 'a t
(** Writes the matching case's index and payload.  Raises {!Error} when
    writing a value no case recognises, and when reading an index out
    of range. *)

val enum : name:string -> (string * 'a) list -> 'a t
[@@sdb.check.allow
  "dead-export: pickle package surface (constant variants); \
   test_pickle round-trips it"]
(** Enumerations: values compared with structural equality on write. *)

(** {1 Records} *)

type ('r, 'f) field

val field : string -> 'f t -> ('r -> 'f) -> ('r, 'f) field

val record2 : string -> ('r, 'a) field -> ('r, 'b) field -> ('a -> 'b -> 'r) -> 'r t

val record3 :
  string -> ('r, 'a) field -> ('r, 'b) field -> ('r, 'c) field ->
  ('a -> 'b -> 'c -> 'r) -> 'r t

val record4 :
  string -> ('r, 'a) field -> ('r, 'b) field -> ('r, 'c) field ->
  ('r, 'd) field -> ('a -> 'b -> 'c -> 'd -> 'r) -> 'r t

val record5 :
  string -> ('r, 'a) field -> ('r, 'b) field -> ('r, 'c) field ->
  ('r, 'd) field -> ('r, 'e) field -> ('a -> 'b -> 'c -> 'd -> 'e -> 'r) -> 'r t

(** {1 Schema evolution}

    A database outlives its program: checkpoints and logs written by
    version 1 must still load after the type has grown a field.
    [versioned] prefixes each value with a version index; reading an
    older index decodes with the historical codec and upgrades. *)

type 'a old_version

val old_version : 'b t -> ('b -> 'a) -> 'a old_version
[@@sdb.check.allow
  "dead-export: pickle package surface (schema evolution); \
   test_pickle's evolution cases call it"]
(** A historical wire format and how to bring its values forward. *)

val versioned : name:string -> history:'a old_version list -> 'a t -> 'a t
[@@sdb.check.allow
  "dead-export: pickle package surface (schema evolution); \
   test_pickle's evolution cases call it"]
(** [versioned ~name ~history latest] writes with [latest] under
    version index [length history]; reads dispatch on the stored index
    (position in [history], oldest first).  Appending a new entry to
    [history] when the type changes keeps every old file readable.

    The codec's fingerprint depends only on [name] — deliberately, so
    containers written before an evolution still open; within the
    value, the version index and the historical codec's own tags keep
    corruption detection intact.  Never reuse a [name] for an unrelated
    type. *)

(** {1 Recursion and sharing} *)

val mu : string -> ('a t -> 'a t) -> 'a t
(** [mu name f] ties the knot for recursive types:
    [mu "tree" (fun tree -> variant ... tree ...)]. *)

val shared : 'a t -> 'a t
[@@sdb.check.allow
  "dead-export: pickle package surface (shared structure); \
   test_pickle round-trips it"]
(** Address identification for acyclic shared structure: a value
    written more than once (by physical identity) through the same
    writer is serialized once and referenced thereafter, and unpickles
    to a physically shared value.  A cycle through [shared] (possible
    only via mutation) is detected and reported on read. *)

val ref_cell : 'a t -> 'a ref t
[@@sdb.check.allow
  "dead-export: pickle package surface (mutable cells); test_pickle \
   round-trips it"]
(** A [ref] pickled by content, without sharing. *)

val shared_ref : dummy:'a -> 'a t -> 'a ref t
[@@sdb.check.allow
  "dead-export: pickle package surface (cyclic structure); \
   test_pickle round-trips it"]
(** A [ref] with sharing that additionally supports cyclic structures:
    the cell is registered before its content is read, so a reference
    back to it resolves.  [dummy] briefly fills the cell during
    reconstruction. *)

(** {1 Top-level encoding} *)

val encode : 'a t -> 'a -> string
(** Raw wire bytes, no header.  Use when the container (log, checkpoint
    file) stores the fingerprint once for many values. *)

val encode_into : Buffer.t -> 'a t -> 'a -> unit
(** {!encode}, appended to an existing buffer instead of allocating a
    fresh string — the allocation-free commit path.  Each call is
    self-contained: sharing ids restart, so the appended bytes decode
    exactly like an {!encode} result. *)

val decode : 'a t -> string -> 'a
(** Inverse of {!encode}; requires the whole string to be consumed.
    Raises {!Error}. *)

val decode_result : 'a t -> string -> ('a, string) result

val to_string : 'a t -> 'a -> string
(** Self-contained: magic, fingerprint, then the value. *)

val of_string : 'a t -> string -> ('a, string) result
(** Checks magic and fingerprint before decoding. *)

(** {1 Accounting}

    Byte counts feed the 1987 cost model (the paper attributes 22 ms of
    every update and 55 s of every checkpoint to pickling). *)

module Counters : sig
  val bytes_pickled : unit -> int
  val bytes_unpickled : unit -> int
  val pickle_ops : unit -> int
  val unpickle_ops : unit -> int
  val reset : unit -> unit
  [@@sdb.check.allow
    "dead-export: test hook: suites zero the pickle counters before \
     measuring"]
end
