(* Seeded violations for the [attr] rule: an unknown mode, an unknown
   sdb.* attribute, waivers without a known rule or a reason, and the
   retired lint waiver. *)

let a () = () [@@sdb.requires sideways]
let b () = () [@@sdb.bogus]
let c () = (() [@sdb.check.allow "no rule named"])
let d () = (() [@sdb.check.allow "mode:"])
let e () = (() [@sdb.lint.allow "unix-io: retired attribute"])
