(** Hierarchical names.

    A name is a sequence of non-empty string components; the textual
    form joins them with ['/'] and leads with ['/'] (["/"] is the
    root, the empty sequence). *)

type t = string list

val root : t

val of_string : string -> (t, string) result
(** Accepts ["/a/b"], ["a/b"], ["/"]; rejects empty components. *)

val to_string : t -> string
val parent : t -> t option
(** [None] for the root. *)
