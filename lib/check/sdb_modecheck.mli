(* Interprocedural lock-mode & effect checker over .cmt typedtrees.

   See sdb_modecheck.ml for the full story.  The CLI wrapper lives in
   bin/sdb_modecheck.ml; test/test_modecheck.ml drives [analyze] over
   seeded-violation fixtures and the real tree. *)

type vmode = Shared | Update | Exclusive

val mode_rank : vmode -> int
val mode_name : vmode -> string
val mode_of_string : string -> vmode option

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_message : string;
}

(* rule name -> one-line description, for --rules *)
val rules : (string * string) list
val render : finding -> string

val waiver_attr : string
val waivers_of_attrs : Parsetree.attributes -> string list
val waives : string list -> string -> bool

type contract = {
  c_requires : vmode option;
  c_acquires : vmode option;
  c_noblock : bool;
}

val no_contract : contract
val contract_of_attrs : bad:(string -> unit) -> Parsetree.attributes -> contract

type mu_kind = [ `Mutex | `Vlock ]

type site = {
  st_mode : vmode option;
  st_mus : (string * mu_kind) list;
}

val empty_site : site

type callsite = {
  cs_callee : string;
  cs_loc : Location.t;
  cs_at : site;
  cs_waivers : string list;
}

type vlock_acq = {
  va_mode : vmode option;
  va_loc : Location.t;
  va_at : site;
  va_protected : bool;
  va_waivers : string list;
}

type mu_acq = {
  ma_class : string;
  ma_kind : mu_kind;
  ma_loc : Location.t;
  ma_at : site;
  ma_protected : bool;
  ma_waivers : string list;
}

type block_site = {
  bs_what : string;
  bs_loc : Location.t;
  bs_at : site;
  bs_waivers : string list;
}

type open_acq = {
  oa_key : [ `V | `M of string ];
  oa_loc : Location.t;
  oa_waivers : string list;
  mutable oa_open : bool;
  mutable oa_protected : bool;
  mutable oa_callees : string list;
  mutable oa_blocked : string option;
}

type summary = {
  s_id : string;
  s_file : string;
  s_loc : Location.t;
  s_contract : contract;
  s_waivers : string list;
  s_calls : callsite list;
  s_vlock_acqs : vlock_acq list;
  s_mu_acqs : mu_acq list;
  s_blocks : block_site list;
  s_opens : open_acq list;
  mutable x_blocks : string option;
  mutable x_acq_modes : vmode list;
  mutable x_mus : (string * mu_kind) list;
}

(* The runtime lockdep DAG documented in DESIGN.md §5. *)
val expected_lockdep : (string * string) list

(* Collect .cmt files under the given roots (descends into the dotted
   .objs directories dune uses for artifacts). *)
val walk_cmts : string list -> string list

type report = {
  r_findings : finding list;
  r_edges : (string * string) list;
  r_units : int;
  r_functions : int;
  r_summaries : (string, summary) Hashtbl.t;
}

(* Analyze the given .cmt files: per-function summaries, call-graph
   fixpoint, rule checks, lock-order derivation.  [xcheck] (default
   true) also compares the derived DAG against [expected_lockdep] —
   disable it for partial trees and fixtures. *)
val analyze : ?xcheck:bool -> string list -> report

(* Synthetic-summary exercises of every rule; no .cmt input needed. *)
val self_test : unit -> (unit, string) result
