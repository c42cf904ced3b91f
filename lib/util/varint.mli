(** LEB128-style variable-length integers with zig-zag signed mapping.

    Small values dominate log entries and pickled data, so compact
    integer encoding keeps the log and checkpoints small.  Encodings are
    canonical: a value has exactly one valid encoding, and decoders
    reject over-long forms (which would otherwise let corrupted bytes
    alias a valid value). *)

exception Malformed of string
(** Raised by decoders on truncated input, over-long encodings, or
    values exceeding the OCaml [int] range. *)

val write_unsigned : Buffer.t -> int -> unit
(** Append the unsigned encoding of a non-negative int.
    Raises [Invalid_argument] on negative input. *)

val write_signed : Buffer.t -> int -> unit
(** Append the zig-zag encoding of any int. *)

val read_unsigned : string -> pos:int -> int * int
(** [read_unsigned s ~pos] decodes at [pos]; returns [(value, next_pos)].
    Raises {!Malformed} on bad input. *)

val read_signed : string -> pos:int -> int * int
(** Signed (zig-zag) counterpart of {!read_unsigned}. *)
