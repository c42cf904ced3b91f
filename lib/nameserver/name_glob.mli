(** Glob patterns over hierarchical names — the name server's browsing
    and enumeration surface (§3 "a variety of enquiry and browsing
    operations"; §2 notes enumerations as the access pattern that
    matters).

    A pattern looks like a name: ["/hosts/*/addr"].  Within a
    component, ['*'] matches any (possibly empty) run of characters and
    ['?'] exactly one.  A final ["**"] component matches any descendant
    at any depth, so ["/users/**"] is "everything under /users".
    Matching is anchored: the pattern's depth must equal the name's
    (except under a trailing ["**"]). *)

type t

val compile : string -> (t, string) result
(** Parse a pattern from its textual form.  ["**"] is only permitted as
    the final component. *)

val matches : t -> Name_path.t -> bool

val prefix_viable : t -> Name_path.t -> bool
(** May any extension of this path still match?  Drives search-space
    pruning during tree walks. *)
