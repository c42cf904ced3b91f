(** Structural descriptions of pickled types.

    Every codec carries a description of the wire shape it produces.
    The description's {!fingerprint} is embedded in checkpoint and log
    headers, so that a restart with a program whose types have drifted
    from the on-disk data fails loudly instead of misreading bits —
    the "strongly typed access to backing store" property of the paper,
    enforced structurally rather than by a shared runtime. *)

type t =
  | Unit
  | Bool
  | Int
  | Float
  | String
  | Pair of t * t
  | Triple of t * t * t
  | List of t
  | Option of t
  | Result of t * t
  | Record of string * (string * t) list
  | Variant of string * (string * t option) list
  | Conv of string * t
  | Shared of t
  | Ref of t
  | Hashtbl of t * t
  | Named of string * t  (** binder introduced by [mu] *)
  | Recur of string  (** back-reference to the enclosing [Named] *)

val to_string : t -> string
[@@sdb.check.allow
  "dead-export: a reference the descr-rendering test compares \
   against"]
(** Canonical, unambiguous rendering (used for fingerprints and
    diagnostics). *)

val fingerprint : t -> string
(** 16-byte MD5 of the canonical rendering. *)

val fingerprint_hex : t -> string
(** Hex form of {!fingerprint}, for messages. *)
