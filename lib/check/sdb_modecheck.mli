(* The repository's static checker over .cmt/.cmti typedtrees.

   See sdb_modecheck.ml for the rules.  The CLI lives in
   bin/sdb_modecheck.ml; test/test_modecheck.ml drives [analyze] over
   seeded-violation fixtures and [analyze_tree] over the real tree. *)

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

(* The runtime lockdep DAG documented in DESIGN.md §5. *)
val expected_lockdep : (string * string) list
[@@sdb.check.allow
  "dead-export: the reference test_modecheck compares the whole derived \
   DAG against (lockdep-xcheck only sees the documented nodes)"]

type report = {
  r_findings : finding list;
  r_edges : (string * string) list;
  r_units : int;
  r_functions : int;
}

(* Analyze the given .cmt/.cmti files under every rule: per-function
   summaries, call-graph fixpoint, rule checks, lock-order derivation,
   dead exports.  [refs] are read only for the references dead-export
   counts.  [xcheck] (default true) also compares the derived DAG
   against [expected_lockdep] — disable it for partial trees. *)
val analyze : ?xcheck:bool -> ?refs:string list -> string list -> report
[@@sdb.check.allow
  "dead-export: the fixture suite's entry — it drives single seeded \
   units through the rules; the CLI goes through analyze_tree"]

(* The gate over a build directory (e.g. _build/default after
   `dune build @check`): lib/ and bin/ are checked, bench/, examples/,
   perfbench/ and test/ are read as references.  Raises
   [Invalid_argument] if lib/ holds no .cmt. *)
val analyze_tree : string -> report
