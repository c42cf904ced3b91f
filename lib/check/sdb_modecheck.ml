(* Sdb_modecheck — interprocedural lock-mode & effect checker.

   Reads the compiler's typedtree output (.cmt files, produced by dune as
   a side effect of every build) and computes a per-function summary:

     - Vlock modes required / acquired / released,
     - mutex classes held (with their sanitizer kind),
     - blocking I/O performed (Unix syscalls, Fs record-closure calls),
     - epoch enter/exit bracketing.

   Summaries propagate through the call graph to a fixpoint, then a rule
   pass verifies the contracts declared with attributes on engine entry
   points:

     [@@sdb.requires shared|update|exclusive]   caller must hold >= mode
     [@@sdb.acquires shared|update|exclusive]   acquires (doc / entry point)
     [@@sdb.noblock]                            may not block, transitively
     [@@sdb.epoch_section]                      body runs inside an epoch
                                                read section

   The checker also rederives the lock-order DAG from the summaries and
   cross-checks it against the runtime lockdep graph documented in
   DESIGN.md §5.  Waivers share sdb_lint's syntax, under the attribute
   [@sdb.check.allow "rule: reason"].  Exit codes (via bin/sdb_modecheck):
   0 clean, 1 findings, 2 usage/internal error. *)

type vmode = Shared | Update | Exclusive

let mode_rank = function Shared -> 1 | Update -> 2 | Exclusive -> 3

let mode_name = function
  | Shared -> "shared" | Update -> "update" | Exclusive -> "exclusive"

let mode_of_string = function
  | "shared" | "Shared" -> Some Shared
  | "update" | "Update" -> Some Update
  | "exclusive" | "Exclusive" -> Some Exclusive
  | _ -> None

type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_message : string;
}

let rules : (string * string) list = [
  ("mode", "call chain reaches a function whose [@@sdb.requires] mode is \
            not held at the call site");
  ("deadlock", "lock acquisition that the three-mode compatibility matrix \
                or mutex reentry makes a potential deadlock");
  ("noblock", "[@@sdb.noblock] function may block (directly or via a callee)");
  ("io-under-mutex", "blocking I/O while a `Mutex-kind Mu class is held");
  ("epoch-bracket", "epoch enter/exit not balanced on every path");
  ("epoch-safety", "lock acquisition or blocking I/O inside an epoch read \
                    section");
  ("lock-order", "statically derived lock-order graph contains a cycle");
  ("lockdep-xcheck", "static lock-order DAG disagrees with the runtime \
                      lockdep graph in DESIGN.md §5");
  ("unprotected-acquire", "Vlock/Mu acquired, then possibly-raising work, \
                           with no Fun.protect releasing it");
  ("attr", "malformed or unknown sdb.* attribute");
  ("read-error", "a .cmt file could not be read or analyzed");
]

let render f =
  Printf.sprintf "%s:%d:%d: [%s] %s" f.f_file f.f_line f.f_col f.f_rule
    f.f_message

(* ------------------------------------------------------------------ *)
(* Attribute parsing: waivers and contracts.                          *)

let waiver_attr = "sdb.check.allow"

let string_payload (p : Parsetree.payload) =
  match p with
  | PStr
      [ { pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _ } ] -> Some s
  | _ -> None

(* A waiver payload is "rule: reason" (waives one rule) or any bare
   string (waives everything) — same grammar as sdb_lint. *)
let waivers_of_attrs (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> waiver_attr then None
      else
        match string_payload a.attr_payload with
        | None -> Some "*"
        | Some s -> (
            match String.index_opt s ':' with
            | Some i -> Some (String.trim (String.sub s 0 i))
            | None -> Some (String.trim s)))
    attrs

let waives waivers rule =
  List.exists (fun w -> w = "*" || w = rule || w = "") waivers

type contract = {
  c_requires : vmode option;
  c_acquires : vmode option;
  c_noblock : bool;
  c_epoch_section : bool;
}

let no_contract =
  { c_requires = None; c_acquires = None; c_noblock = false;
    c_epoch_section = false }

(* Contract payloads accept a bare word: [@@sdb.requires shared] parses
   the payload as the identifier/constructor/string "shared". *)
let payload_word (p : Parsetree.payload) =
  match p with
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident s; _ } -> Some s
      | Pexp_construct ({ txt = Longident.Lident s; _ }, None) -> Some s
      | Pexp_constant (Pconst_string (s, _, _)) -> Some s
      | _ -> None)
  | _ -> None

let known_sdb_attrs =
  [ "sdb.requires"; "sdb.acquires"; "sdb.noblock"; "sdb.epoch_section";
    waiver_attr; "sdb.lint.allow" ]

(* [bad] is called for each malformed sdb.* attribute with a message. *)
let contract_of_attrs ~bad (attrs : Parsetree.attributes) =
  List.fold_left
    (fun c (a : Parsetree.attribute) ->
      let name = a.attr_name.txt in
      let mode_arg () =
        match payload_word a.attr_payload with
        | Some w -> (
            match mode_of_string w with
            | Some m -> Some m
            | None ->
                bad (Printf.sprintf "[@%s]: unknown mode %S" name w);
                None)
        | None ->
            bad (Printf.sprintf "[@%s]: expected a mode argument" name);
            None
      in
      match name with
      | "sdb.requires" -> { c with c_requires = mode_arg () }
      | "sdb.acquires" -> { c with c_acquires = mode_arg () }
      | "sdb.noblock" -> { c with c_noblock = true }
      | "sdb.epoch_section" -> { c with c_epoch_section = true }
      | _ ->
          if String.length name > 4 && String.sub name 0 4 = "sdb."
             && not (List.mem name known_sdb_attrs)
          then bad (Printf.sprintf "unknown attribute [@%s]" name);
          c)
    no_contract attrs

(* ------------------------------------------------------------------ *)
(* Canonical names.  Dune mangles wrapped-library modules to           *)
(* Lib__Module; wrapper aliases are Sdb_*.  We normalize paths so that *)
(* Sdb_vlock.Vlock.acquire, Sdb_vlock__Vlock.acquire and               *)
(* Vlock.acquire all resolve to ["Vlock"; "acquire"].                  *)

let strip_mangle s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = '_' && s.[i + 1] = '_' then Some (i + 2)
    else find (i + 1)
  in
  let rec last acc i =
    match find i with None -> acc | Some j -> last (Some j) j
  in
  match last None 0 with
  | Some j when j < n -> String.sub s j (n - j)
  | _ -> s

let is_mangled s = strip_mangle s <> s

let is_wrapper s =
  String.length s > 4 && String.sub s 0 4 = "Sdb_" && not (is_mangled s)

let normalize parts =
  let parts = match parts with "Stdlib" :: rest -> rest | p -> p in
  let rec drop = function
    | w :: (m :: _ as rest)
      when is_wrapper w && String.length m > 0
           && m.[0] = Char.uppercase_ascii m.[0] ->
        drop rest
    | p :: rest -> strip_mangle p :: drop rest
    | [] -> []
  in
  drop parts

let rec path_parts (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_parts p @ [ s ]
  | Path.Papply (p, _) -> path_parts p
  | Path.Pextra_ty (p, _) -> path_parts p

let id_of_parts parts = String.concat "." parts

(* ------------------------------------------------------------------ *)
(* Per-function summaries.                                             *)

type mu_kind = [ `Mutex | `Vlock ]

(* What the analysis knows at one program point inside a function. *)
type site = {
  st_mode : vmode option;             (* Vlock mode held here *)
  st_mus : (string * mu_kind) list;   (* Mu classes held, innermost first *)
  st_epoch : int;                     (* epoch-section nesting depth *)
}

let empty_site = { st_mode = None; st_mus = []; st_epoch = 0 }

type callsite = {
  cs_callee : string;        (* canonical id, e.g. "Vlock.acquire" *)
  cs_loc : Location.t;
  cs_at : site;
  cs_waivers : string list;
}

type vlock_acq = {
  va_mode : vmode option;    (* None = mode not statically known *)
  va_loc : Location.t;
  va_at : site;
  va_protected : bool;       (* release reachable via Fun.protect *)
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
  bs_what : string;          (* e.g. "Unix.fsync", "Fs.w_sync" *)
  bs_loc : Location.t;
  bs_at : site;
  bs_waivers : string list;
}

(* An acquire audit record: opened at Vlock.acquire / Mu.lock, it
   collects the callees and blocking sites reached while the lock is
   held, to check exception safety (is a Fun.protect releasing it?). *)
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
  s_id : string;             (* "Unit.Module.fn" *)
  s_file : string;
  s_loc : Location.t;
  s_contract : contract;
  s_waivers : string list;   (* waivers attached to the binding *)
  s_calls : callsite list;
  s_vlock_acqs : vlock_acq list;
  s_mu_acqs : mu_acq list;
  s_blocks : block_site list;
  s_opens : open_acq list;
  s_epoch_balanced : bool;
  (* Fixpoint-computed transitive facts.  Each carries a witness chain
     for the report ("may block: Wal.Writer.sync <- Fs.w_sync"). *)
  mutable x_blocks : string option;
  mutable x_acq_modes : vmode list;
  mutable x_mus : (string * mu_kind) list;
}

(* The runtime lockdep DAG documented in DESIGN.md §5 (and asserted by
   the sanitizer's cross-check target): checkpointing takes the vlock
   while holding the checkpoint token, and the group-commit path takes
   the gc mutex while holding the vlock. *)
let expected_lockdep =
  [ ("smalldb.ckpt", "vlock"); ("vlock", "smalldb.gc") ]

(* Blocking primitives.  Unix syscalls that can block or hit the disk; *)
(* Fs/transport record fields (all record-closure calls go through     *)
(* Texp_field heads); module-level helpers.                            *)
let blocking_unix =
  [ "read"; "write"; "single_write"; "fsync"; "fdatasync"; "openfile";
    "select"; "sleep"; "sleepf"; "connect"; "accept"; "recv"; "recvfrom";
    "send"; "sendto"; "close"; "rename"; "unlink"; "truncate"; "ftruncate";
    "mkdir"; "opendir"; "readdir"; "stat"; "fstat"; "lseek"; "bind";
    "listen"; "shutdown"; "getaddrinfo" ]

let blocking_fields =
  [ (* Fs.t *)
    "list_files"; "exists"; "file_size"; "open_reader"; "create";
    "open_append"; "open_random"; "rename"; "remove"; "truncate";
    (* Fs reader/writer/random closures *)
    "r_read"; "r_seek"; "r_close"; "w_write"; "w_sync"; "w_close";
    "pread"; "pwrite"; "rw_sync"; "rw_size"; "rw_close";
    (* rpc transport closures *)
    "t_send"; "t_recv"; "t_close" ]

let blocking_funs =
  [ "Thread.delay"; "Thread.join"; "Fs.read_file"; "Fs.write_file";
    "Condition.wait" ]

(* Heads that never return: scanning past them must not pollute joins. *)
let diverging_heads =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit";
    "Fs.io_fail" ]

(* Combinators whose function argument runs inline, in the caller's
   current lock/epoch context (not on another thread, not deferred). *)
let inline_iterators =
  [ "List.iter"; "List.map"; "List.filter"; "List.fold_left";
    "List.filter_map"; "List.concat_map"; "List.exists"; "List.for_all";
    "List.find_opt"; "List.partition"; "List.sort"; "List.iteri";
    "Array.iter"; "Array.map"; "Array.fold_left"; "Array.iteri";
    "Option.iter"; "Option.map"; "Option.fold"; "Option.value";
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.filter_map_inplace";
    "Queue.iter"; "Seq.iter"; "Result.map"; "Result.iter";
    "Trace.with_span"; "Metrics.with_timer"; "Fun.flip" ]

(* ------------------------------------------------------------------ *)
(* Analysis context.                                                   *)

type ctx = {
  unit_name : string;
  src_file : string;
  findings : finding list ref;
  (* module alias -> canonical parts, e.g. "Core" -> ["Vlock_core";"Make"] *)
  mutable aliases : (string * string list) list;
  (* local identifier (let-bound or record field) -> Mu class + kind *)
  mutable mu_classes : (string * (string * mu_kind)) list;
  summaries : (string, summary) Hashtbl.t;
}

let loc_of (l : Location.t) =
  let p = l.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let report ctx ?(waivers = []) rule (loc : Location.t) msg =
  if not (waives waivers rule) then begin
    let line, col = loc_of loc in
    ctx.findings :=
      { f_file = ctx.src_file; f_line = line; f_col = col; f_rule = rule;
        f_message = msg }
      :: !(ctx.findings)
  end

(* ------------------------------------------------------------------ *)
(* The abstract interpreter over one function body.                    *)

type scan_state = {
  mutable held : vmode option;
  mutable mus : (string * mu_kind) list;
  mutable epoch : int;
  mutable diverges : bool;
}

type fn_ctx = {
  c : ctx;
  fn_id : string;
  mutable waiver_stack : string list list;
  (* let-bound local closures, inlined at call sites *)
  mutable locals : (Ident.t * Typedtree.expression) list;
  mutable inlining : Ident.t list;   (* recursion guard *)
  mutable in_finally : int;
  (* release keys found in the ~finally of an enclosing Fun.protect:
     acquires opened inside the protected body are born protected *)
  mutable protect_keys : [ `V | `M of string ] list list;
  (* >0 while scanning a lambda that is stored or handed to an unknown
     callee: findings still fire, but effects don't pollute the
     enclosing function's summary *)
  mutable detached : int;
  mutable opens : open_acq list;
  mutable calls : callsite list;
  mutable vlock_acqs : vlock_acq list;
  mutable mu_acqs : mu_acq list;
  mutable blocks : block_site list;
  mutable balanced : bool;
}

let active_waivers fc = List.concat fc.waiver_stack

let site_of (st : scan_state) =
  { st_mode = st.held; st_mus = st.mus; st_epoch = st.epoch }

let snap (st : scan_state) =
  { held = st.held; mus = st.mus; epoch = st.epoch; diverges = st.diverges }

let restore (st : scan_state) (s : scan_state) =
  st.held <- s.held; st.mus <- s.mus; st.epoch <- s.epoch;
  st.diverges <- s.diverges

(* Join the states at the end of the arms of a branch back into [st].
   Diverging arms contribute nothing.  Disagreement on the Vlock mode
   joins to None (unknown); mutex sets intersect; epoch takes the max
   (the bracket check uses the final joined value). *)
let join_into (st : scan_state) (arms : scan_state list) =
  match List.filter (fun a -> not a.diverges) arms with
  | [] -> st.diverges <- true
  | a0 :: rest ->
      let held =
        List.fold_left
          (fun h a -> if a.held = h then h else None)
          a0.held rest
      in
      let mus =
        List.fold_left
          (fun m a -> List.filter (fun c -> List.mem c a.mus) m)
          a0.mus rest
      in
      let epoch = List.fold_left (fun e a -> max e a.epoch) a0.epoch rest in
      st.held <- held; st.mus <- mus; st.epoch <- epoch;
      st.diverges <- false

(* Resolve an identifier path to its canonical parts, expanding local
   module aliases on the head component. *)
let resolve ctx (p : Path.t) =
  let parts = path_parts p in
  let parts =
    match parts with
    | head :: rest -> (
        match List.assoc_opt head ctx.aliases with
        | Some target -> target @ rest
        | None -> parts)
    | [] -> parts
  in
  normalize parts

(* Flatten an application, unwrapping the [@@] and [|>] operators and
   curried heads, keeping labels so ~finally / ~kind args are findable.
   Returns (head expression, (label, arg expression) list). *)
let rec collect_app (e : Typedtree.expression) =
  let open Typedtree in
  match e.exp_desc with
  | Texp_apply
      ( { exp_desc = Texp_ident (p, _, _); _ },
        [ (Asttypes.Nolabel, Some f); (Asttypes.Nolabel, Some x) ] )
    when (match path_parts p with
          | [ op ] | [ "Stdlib"; op ] -> op = "@@" || op = "|>"
          | _ -> false) ->
      let f, x =
        match path_parts p with
        | [ "|>" ] | [ "Stdlib"; "|>" ] -> (x, f)
        | _ -> (f, x)
      in
      let head, args = collect_app f in
      (head, args @ [ (Asttypes.Nolabel, x) ])
  | Texp_apply (f, args) ->
      let head, first = collect_app f in
      let rest =
        List.filter_map
          (fun (lbl, a) -> match a with Some a -> Some (lbl, a) | None -> None)
          args
      in
      (head, first @ rest)
  | _ -> (e, [])

(* Extract a Vlock mode from an argument expression: the constructor
   Vlock.Shared / Update / Exclusive, or an identifier ending in one. *)
let mode_of_expr (e : Typedtree.expression) =
  let open Typedtree in
  match e.exp_desc with
  | Texp_construct (_, cd, _) -> mode_of_string cd.Types.cstr_name
  | Texp_ident (p, _, _) -> (
      match List.rev (path_parts p) with
      | last :: _ -> mode_of_string last
      | [] -> None)
  | _ -> None

(* Name a Mu argument: a record field or identifier, looked up in the
   per-unit class map; unknown names get a stable fallback class. *)
let mu_class_of_arg ctx (e : Typedtree.expression) : string * mu_kind =
  let open Typedtree in
  let lookup name =
    match List.assoc_opt name ctx.mu_classes with
    | Some (cls, kind) -> (cls, kind)
    | None -> (Printf.sprintf "mu:%s.%s" ctx.unit_name name, `Mutex)
  in
  match e.exp_desc with
  | Texp_field (_, _, ld) -> lookup ld.Types.lbl_name
  | Texp_ident (p, _, _) -> (
      match List.rev (path_parts p) with
      | last :: _ -> lookup last
      | [] -> (Printf.sprintf "mu:%s.?" ctx.unit_name, `Mutex))
  | _ -> (Printf.sprintf "mu:%s.?" ctx.unit_name, `Mutex)

(* Strip the instance suffix: "smalldb.ckpt:orders" -> "smalldb.ckpt".
   Fallback classes ("mu:Unit.name") keep their colon. *)
let class_root s =
  if String.length s >= 3 && String.sub s 0 3 = "mu:" then s
  else
    match String.index_opt s ':' with
    | Some i when i > 0 -> String.sub s 0 i
    | _ -> s

(* Constant-string head of a Mu.make class argument: either a literal,
   or [lit ^ dynamic] (instance-suffixed classes). *)
let rec class_const (e : Typedtree.expression) =
  let open Typedtree in
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_string (s, _, _)) -> Some s
  | Texp_apply
      ( { exp_desc = Texp_ident (p, _, _); _ },
        (Asttypes.Nolabel, Some a) :: _ )
    when (match List.rev (path_parts p) with
          | "^" :: _ -> true | _ -> false) -> class_const a
  | _ -> None

let key_eq a b =
  match (a, b) with
  | `V, `V -> true
  | `M x, `M y -> (x : string) = y
  | _ -> false

let fresh_state () = { held = None; mus = []; epoch = 0; diverges = false }

let is_lambda (e : Typedtree.expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* Peel the (possibly nested, one-parameter-per-layer in 5.x) function
   layers off a lambda, returning the innermost body.  Multi-case
   lambdas (function | A -> .. | B -> ..) return None: the caller scans
   the cases as a match instead. *)
let rec peel_lambda (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_lhs = _; c_guard = None; c_rhs; _ } ]; _ } ->
      (match peel_lambda c_rhs with Some b -> Some b | None -> Some c_rhs)
  | _ -> None

let rec scan fc st (e : Typedtree.expression) =
  let ctx = fc.c in
  let waivers = waivers_of_attrs e.exp_attributes in
  let bad msg = report ctx "attr" e.exp_loc msg in
  (* contract attributes make no sense on expressions, but run the
     parser anyway so unknown sdb.* attributes are flagged here too *)
  ignore (contract_of_attrs ~bad e.exp_attributes : contract);
  fc.waiver_stack <- waivers :: fc.waiver_stack;
  (match e.exp_desc with
  | Texp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          match (vb.vb_pat.pat_desc, is_lambda vb.vb_expr) with
          | Tpat_var (id, _), true ->
              fc.locals <- (id, vb.vb_expr) :: fc.locals
          | _ -> scan fc st vb.vb_expr)
        vbs;
      scan fc st body
  | Texp_sequence (a, b) -> scan fc st a; scan fc st b
  | Texp_ifthenelse (c, t, eo) ->
      scan fc st c;
      let s0 = snap st in
      scan fc st t;
      let arm_then = snap st in
      (match eo with
      | Some els ->
          restore st s0;
          scan fc st els;
          let arm_else = snap st in
          join_into st [ arm_then; arm_else ]
      | None -> join_into st [ arm_then; s0 ])
  | Texp_match (scrut, cases, _) ->
      scan fc st scrut;
      let s0 = snap st in
      let arms =
        List.map
          (fun (c : Typedtree.computation Typedtree.case) ->
            restore st s0;
            (match c.c_guard with Some g -> scan fc st g | None -> ());
            scan fc st c.c_rhs;
            snap st)
          cases
      in
      join_into st arms
  | Texp_try (body, handlers) ->
      let s0 = snap st in
      scan fc st body;
      let arm_body = snap st in
      let arms_h =
        List.map
          (fun (c : Typedtree.value Typedtree.case) ->
            restore st s0;
            (match c.c_guard with Some g -> scan fc st g | None -> ());
            scan fc st c.c_rhs;
            snap st)
          handlers
      in
      join_into st (arm_body :: arms_h)
  | Texp_while (c, b) ->
      scan fc st c;
      let s0 = snap st in
      scan fc st b;
      restore st s0
  | Texp_for (_, _, lo, hi, _, b) ->
      scan fc st lo;
      scan fc st hi;
      let s0 = snap st in
      scan fc st b;
      restore st s0
  | Texp_function { cases; _ } ->
      (* a lambda that is merely being constructed here: scan detached *)
      scan_detached fc cases
  | Texp_assert ({ exp_desc = Texp_construct (_, cd, _); _ }, _)
    when cd.Types.cstr_name = "false" -> st.diverges <- true
  | Texp_assert (cond, _) -> scan fc st cond
  | Texp_apply _ -> scan_apply fc st e
  | _ -> scan_children fc st e);
  fc.waiver_stack <- List.tl fc.waiver_stack

and scan_children fc st e =
  let it =
    { Tast_iterator.default_iterator with expr = (fun _ e -> scan fc st e) }
  in
  Tast_iterator.default_iterator.expr it e

and scan_detached fc cases =
  fc.detached <- fc.detached + 1;
  List.iter
    (fun (c : Typedtree.value Typedtree.case) ->
      let st' = fresh_state () in
      (match c.c_guard with Some g -> scan fc st' g | None -> ());
      scan fc st' c.c_rhs)
    cases;
  fc.detached <- fc.detached - 1

(* Scan an argument handed to an unknown callee: lambdas are scanned
   detached (they may never run, or run elsewhere); everything else is
   evaluated right here. *)
and scan_arg fc st (a : Typedtree.expression) =
  match a.exp_desc with
  | Texp_function { cases; _ } -> scan_detached fc cases
  | _ -> scan fc st a

(* Inline a lambda argument into the current state (used for callees
   known to run it synchronously under the caller's locks). *)
and inline_fn_arg fc st (a : Typedtree.expression) =
  match a.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
      (match peel_lambda c_rhs with
      | Some body -> scan fc st body
      | None -> scan fc st c_rhs)
  | Texp_function { cases; _ } ->
      let s0 = snap st in
      let arms =
        List.map
          (fun (c : Typedtree.value Typedtree.case) ->
            restore st s0;
            (match c.c_guard with Some g -> scan fc st g | None -> ());
            scan fc st c.c_rhs;
            snap st)
          cases
      in
      join_into st arms
  | Texp_ident (p, _, _) -> call_ident fc st a.exp_loc p []
  | _ -> scan fc st a

and note_block fc st loc what =
  if fc.detached = 0 then begin
    fc.blocks <-
      { bs_what = what; bs_loc = loc; bs_at = site_of st;
        bs_waivers = active_waivers fc }
      :: fc.blocks;
    List.iter
      (fun oa ->
        if oa.oa_open && oa.oa_blocked = None then oa.oa_blocked <- Some what)
      fc.opens
  end

and note_callsite fc st loc id =
  if fc.detached = 0 then begin
    fc.calls <-
      { cs_callee = id; cs_loc = loc; cs_at = site_of st;
        cs_waivers = active_waivers fc }
      :: fc.calls;
    List.iter
      (fun oa -> if oa.oa_open then oa.oa_callees <- id :: oa.oa_callees)
      fc.opens
  end

and born_protected fc key =
  fc.in_finally > 0
  || List.exists (List.exists (key_eq key)) fc.protect_keys

and open_record fc key loc =
  if fc.detached = 0 then
    fc.opens <-
      { oa_key = key; oa_loc = loc; oa_waivers = active_waivers fc;
        oa_open = true; oa_protected = born_protected fc key;
        oa_callees = []; oa_blocked = None }
      :: fc.opens

and close_record fc key =
  match
    List.find_opt (fun oa -> oa.oa_open && key_eq oa.oa_key key) fc.opens
  with
  | Some oa ->
      oa.oa_open <- false;
      if fc.in_finally > 0 then oa.oa_protected <- true
  | None -> ()

and mode_conflict held acq =
  match (held, acq) with
  | Shared, Shared | Shared, Update | Update, Shared -> false
  | _ -> true

and vlock_acquire fc st loc m =
  let ctx = fc.c in
  let waivers = active_waivers fc in
  (match (st.held, m) with
  | Some h, Some a when mode_conflict h a ->
      report ctx ~waivers "deadlock" loc
        (Printf.sprintf
           "Vlock.acquire %s while already holding %s (self-deadlock per \
            the mode compatibility matrix)"
           (mode_name a) (mode_name h))
  | _ -> ());
  if fc.detached = 0 then
    fc.vlock_acqs <-
      { va_mode = m; va_loc = loc; va_at = site_of st;
        va_protected = born_protected fc `V; va_waivers = waivers }
      :: fc.vlock_acqs;
  (match m with Some m -> st.held <- Some m | None -> ());
  open_record fc `V loc

and vlock_release fc st =
  st.held <- None;
  close_record fc `V

and mu_lock fc st loc arg =
  let ctx = fc.c in
  let waivers = active_waivers fc in
  let cls, kind = mu_class_of_arg ctx arg in
  if List.exists (fun (c, _) -> c = cls) st.mus then
    report ctx ~waivers "deadlock" loc
      (Printf.sprintf "Mu.lock of class %S while already holding it \
                       (non-recursive mutex)" cls);
  if fc.detached = 0 then
    fc.mu_acqs <-
      { ma_class = cls; ma_kind = kind; ma_loc = loc; ma_at = site_of st;
        ma_protected = born_protected fc (`M cls); ma_waivers = waivers }
      :: fc.mu_acqs;
  st.mus <- (cls, kind) :: st.mus;
  open_record fc (`M cls) loc

and mu_unlock fc st arg =
  let cls, _ = mu_class_of_arg fc.c arg in
  let rec remove = function
    | [] -> []
    | (c, _) :: rest when c = cls -> rest
    | x :: rest -> x :: remove rest
  in
  st.mus <- remove st.mus;
  close_record fc (`M cls)

and scan_apply fc st (e : Typedtree.expression) =
  let head, args = collect_app e in
  match head.exp_desc with
  | Texp_field (obj, _, ld) ->
      scan fc st obj;
      List.iter (fun (_, a) -> scan_arg fc st a) args;
      if List.mem ld.Types.lbl_name blocking_fields then
        note_block fc st e.exp_loc ("closure ." ^ ld.Types.lbl_name)
  | Texp_ident (p, _, _) -> dispatch fc st e.exp_loc p args
  | _ ->
      scan fc st head;
      List.iter (fun (_, a) -> scan_arg fc st a) args

(* A bare or partially-applied identifier in an invoked position. *)
and call_ident fc st loc p args = dispatch fc st loc p args

and dispatch fc st loc p args =
  let parts = resolve fc.c p in
  let id = id_of_parts parts in
  let nolabels =
    List.filter_map
      (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
      args
  in
  let local =
    match p with
    | Path.Pident pid ->
        List.find_opt (fun (i, _) -> Ident.same i pid) fc.locals
    | _ -> None
  in
  match local with
  | Some (pid, body) -> inline_local fc st pid body args
  | None -> (
      match (parts, nolabels) with
      | [ "Vlock"; "acquire" ], [ lk; m ] ->
          scan fc st lk;
          vlock_acquire fc st loc (mode_of_expr m)
      | [ "Vlock"; "release" ], lk :: _ ->
          scan fc st lk;
          vlock_release fc st
      | [ "Vlock"; "upgrade" ], lk :: _ ->
          scan fc st lk;
          if st.held <> Some Update && st.held <> Some Exclusive then
            report fc.c ~waivers:(active_waivers fc) "mode" loc
              (Printf.sprintf
                 "Vlock.upgrade requires Update held; here the mode is %s"
                 (match st.held with
                 | Some m -> mode_name m
                 | None -> "not statically known"));
          st.held <- Some Exclusive
      | [ "Vlock"; "downgrade" ], lk :: _ ->
          scan fc st lk;
          st.held <- Some Update
      | [ "Vlock"; "with_lock" ], [ lk; m; f ] ->
          scan fc st lk;
          let mode = mode_of_expr m in
          (match (st.held, mode) with
          | Some h, Some a when mode_conflict h a ->
              report fc.c ~waivers:(active_waivers fc) "deadlock" loc
                (Printf.sprintf
                   "Vlock.with_lock %s while already holding %s"
                   (mode_name a) (mode_name h))
          | _ -> ());
          if fc.detached = 0 then
            fc.vlock_acqs <-
              { va_mode = mode; va_loc = loc; va_at = site_of st;
                va_protected = true; va_waivers = active_waivers fc }
              :: fc.vlock_acqs;
          let prev = st.held in
          (match mode with Some m -> st.held <- Some m | None -> ());
          inline_fn_arg fc st f;
          st.held <- prev
      | ([ "Mu"; "lock" ] | [ "Sdb_check"; "Mu"; "lock" ]), [ m ] ->
          mu_lock fc st loc m
      | ([ "Mu"; "unlock" ] | [ "Sdb_check"; "Mu"; "unlock" ]), [ m ] ->
          mu_unlock fc st m
      | ([ "Mu"; "with_lock" ] | [ "Sdb_check"; "Mu"; "with_lock" ]), [ m; f ]
        ->
          mu_lock fc st loc m;
          (match
             List.find_opt
               (fun oa -> oa.oa_open
                          && key_eq oa.oa_key (`M (fst (mu_class_of_arg fc.c m))))
               fc.opens
           with
          | Some oa -> oa.oa_protected <- true
          | None -> ());
          inline_fn_arg fc st f;
          mu_unlock fc st m
      | ([ "Mu"; "wait" ] | [ "Sdb_check"; "Mu"; "wait" ]), _ ->
          (* Condition wait: atomically releases the waited mutex while
             blocked and reacquires before returning, so it blocks, but
             not *under* that mutex — and it cannot strand it. *)
          List.iter (fun (_, a) -> scan_arg fc st a) args;
          let waited =
            match nolabels with
            | _ :: mu :: _ -> Some (fst (mu_class_of_arg fc.c mu))
            | _ -> None
          in
          if fc.detached = 0 then begin
            let mus =
              match waited with
              | Some w -> List.filter (fun (c, _) -> c <> w) st.mus
              | None -> st.mus
            in
            fc.blocks <-
              { bs_what = "Mu.wait"; bs_loc = loc;
                bs_at = { (site_of st) with st_mus = mus };
                bs_waivers = active_waivers fc }
              :: fc.blocks;
            List.iter
              (fun oa ->
                let is_waited =
                  match waited with
                  | Some w -> key_eq oa.oa_key (`M w)
                  | None -> false
                in
                if oa.oa_open && (not is_waited) && oa.oa_blocked = None
                then oa.oa_blocked <- Some "Mu.wait")
              fc.opens
          end
      | [ "Fun"; "protect" ], _ -> fun_protect fc st loc args
      | ( [ "Epoch"; ("read" | "read_with_lsn" | "pinned") ],
          _ ) ->
          let fn_arg = List.find_opt is_lambda (List.rev nolabels) in
          let is_fn a =
            match fn_arg with Some f -> f == a | None -> false
          in
          List.iter
            (fun (_, a) -> if not (is_fn a) then scan_arg fc st a)
            args;
          st.epoch <- st.epoch + 1;
          (match fn_arg with
          | Some f -> inline_fn_arg fc st f
          | None -> ());
          st.epoch <- st.epoch - 1
      | [ "Sdb_check"; "note_epoch_enter" ], _ ->
          st.epoch <- st.epoch + 1
      | [ "Sdb_check"; "note_epoch_exit" ], _ ->
          st.epoch <- max 0 (st.epoch - 1)
      | ([ "Condition"; "wait" ] | [ "Condition"; "Wait" ]), _ ->
          List.iter (fun (_, a) -> scan_arg fc st a) args;
          note_block fc st loc "Condition.wait"
      | [ "Unix"; f ], _ when List.mem f blocking_unix ->
          List.iter (fun (_, a) -> scan_arg fc st a) args;
          note_block fc st loc ("Unix." ^ f)
      | _, _ when List.mem id blocking_funs ->
          List.iter (fun (_, a) -> scan_arg fc st a) args;
          note_block fc st loc id
      | _, _
        when List.mem id diverging_heads
             || (match parts with
                | [ f ] -> List.mem f diverging_heads
                | _ -> false) ->
          List.iter (fun (_, a) -> scan_arg fc st a) args;
          st.diverges <- true
      | _, _ when List.mem id inline_iterators ->
          List.iter
            (fun (_, a) ->
              if is_lambda a then inline_fn_arg fc st a
              else scan fc st a)
            args
      | _ ->
          note_callsite fc st loc id;
          List.iter (fun (_, a) -> scan_arg fc st a) args)

and inline_local fc st pid body args =
  if List.exists (fun i -> Ident.same i pid) fc.inlining
     || List.length fc.inlining > 8
  then begin
    note_callsite fc st Location.none ("local." ^ Ident.name pid);
    List.iter (fun (_, a) -> scan_arg fc st a) args
  end
  else begin
    List.iter (fun (_, a) -> scan_arg fc st a) args;
    fc.inlining <- pid :: fc.inlining;
    (match peel_lambda body with
    | Some b -> scan fc st b
    | None ->
        (match body.exp_desc with
        | Texp_function { cases; _ } ->
            let s0 = snap st in
            let arms =
              List.map
                (fun (c : Typedtree.value Typedtree.case) ->
                  restore st s0;
                  (match c.c_guard with Some g -> scan fc st g | None -> ());
                  scan fc st c.c_rhs;
                  snap st)
                cases
            in
            join_into st arms
        | _ -> scan fc st body));
    fc.inlining <- List.tl fc.inlining
  end

and fun_protect fc st loc args =
  let finally =
    List.find_map
      (fun (l, a) ->
        match l with Asttypes.Labelled "finally" -> Some a | _ -> None)
      args
  in
  let body =
    List.find_map
      (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
      args
  in
  let keys =
    match finally with Some f -> probe_releases fc f | None -> []
  in
  List.iter
    (fun oa ->
      if oa.oa_open && List.exists (key_eq oa.oa_key) keys then
        oa.oa_protected <- true)
    fc.opens;
  fc.protect_keys <- keys :: fc.protect_keys;
  (match body with
  | Some b -> inline_fn_arg fc st b
  | None -> ());
  fc.protect_keys <- List.tl fc.protect_keys;
  (match finally with
  | Some f ->
      (* the finally runs before anything after the protect, so its
         effects (releases, epoch exits) persist in the state *)
      fc.in_finally <- fc.in_finally + 1;
      inline_fn_arg fc st f;
      fc.in_finally <- fc.in_finally - 1
  | None ->
      report fc.c ~waivers:(active_waivers fc) "attr" loc
        "Fun.protect without a syntactic ~finally argument — the checker \
         cannot audit this release path")

(* Side-effect-free pre-scan of a ~finally expression: which lock keys
   does it release?  Local closures are chased (depth-capped). *)
and probe_releases fc (e : Typedtree.expression) =
  let acc = ref [] in
  let depth = ref 0 in
  let rec go (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply _ ->
        let head, args = collect_app e in
        (match head.exp_desc with
        | Texp_ident (p, _, _) ->
            (match resolve fc.c p with
            | [ "Vlock"; "release" ] -> acc := `V :: !acc
            | [ "Mu"; "unlock" ] | [ "Sdb_check"; "Mu"; "unlock" ] -> (
                match args with
                | (_, a) :: _ ->
                    acc := `M (fst (mu_class_of_arg fc.c a)) :: !acc
                | [] -> ())
            | _ -> (
                match p with
                | Path.Pident pid when !depth < 8 -> (
                    match
                      List.find_opt
                        (fun (i, _) -> Ident.same i pid)
                        fc.locals
                    with
                    | Some (_, body) ->
                        incr depth;
                        go body;
                        decr depth
                    | None -> ())
                | _ -> ()))
        | _ -> go head);
        List.iter (fun (_, a) -> go a) args
    | _ ->
        let it =
          { Tast_iterator.default_iterator with expr = (fun _ e -> go e) }
        in
        Tast_iterator.default_iterator.expr it e
  in
  go e;
  !acc

(* ------------------------------------------------------------------ *)
(* Per-binding summaries and the structure walk.                       *)

let dedup l =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l

let summarize_vb ctx ~prefix (vb : Typedtree.value_binding) =
  let name =
    match Typedtree.pat_bound_idents vb.vb_pat with
    | id :: _ -> Ident.name id
    | [] -> Printf.sprintf "_init_%d" (fst (loc_of vb.vb_loc))
  in
  let fn_id = prefix ^ "." ^ name in
  let bad msg = report ctx "attr" vb.vb_loc msg in
  let contract = contract_of_attrs ~bad vb.vb_attributes in
  let waivers = waivers_of_attrs vb.vb_attributes in
  let fc =
    { c = ctx; fn_id; waiver_stack = [ waivers ]; locals = []; inlining = [];
      in_finally = 0; protect_keys = []; detached = 0; opens = []; calls = [];
      vlock_acqs = []; mu_acqs = []; blocks = []; balanced = true }
  in
  let init_epoch = if contract.c_epoch_section then 1 else 0 in
  let st =
    { held = contract.c_requires; mus = []; epoch = init_epoch;
      diverges = false }
  in
  (match vb.vb_expr.exp_desc with
  | Texp_function _ -> inline_fn_arg fc st vb.vb_expr
  | _ -> scan fc st vb.vb_expr);
  let balanced = st.diverges || st.epoch = init_epoch in
  let s =
    { s_id = fn_id; s_file = ctx.src_file; s_loc = vb.vb_loc;
      s_contract = contract; s_waivers = waivers; s_calls = fc.calls;
      s_vlock_acqs = fc.vlock_acqs; s_mu_acqs = fc.mu_acqs;
      s_blocks = fc.blocks; s_opens = fc.opens;
      s_epoch_balanced = balanced && fc.balanced;
      x_blocks = None; x_acq_modes = []; x_mus = [] }
  in
  Hashtbl.replace ctx.summaries fn_id s

let rec unwrap_me (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> unwrap_me me
  | _ -> me

let rec walk_structure ctx ~prefix (str : Typedtree.structure) =
  List.iter (walk_item ctx ~prefix) str.str_items

and walk_item ctx ~prefix (it : Typedtree.structure_item) =
  match it.str_desc with
  | Tstr_value (_, vbs) -> List.iter (summarize_vb ctx ~prefix) vbs
  | Tstr_module mb -> walk_mb ctx ~prefix mb
  | Tstr_recmodule mbs -> List.iter (walk_mb ctx ~prefix) mbs
  | _ -> ()

and walk_mb ctx ~prefix (mb : Typedtree.module_binding) =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  walk_me ctx ~prefix:(prefix ^ "." ^ name) (unwrap_me mb.mb_expr)

and walk_me ctx ~prefix (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> walk_structure ctx ~prefix str
  | Tmod_functor (_, body) -> walk_me ctx ~prefix (unwrap_me body)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Pre-pass: module aliases and Mu class names.                        *)

let mu_make_class ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply _ -> (
      let head, args = collect_app e in
      match head.exp_desc with
      | Texp_ident (p, _, _) -> (
          match resolve ctx p with
          | [ "Mu"; ("make" | "create") ]
          | [ "Sdb_check"; "Mu"; ("make" | "create") ] ->
              let cls =
                List.find_map
                  (fun (l, a) ->
                    if l = Asttypes.Nolabel then class_const a else None)
                  args
              in
              let rec variant_of (a : Typedtree.expression) =
                match a.exp_desc with
                | Texp_variant (v, _) -> Some v
                | Texp_construct (_, cd, [ x ])
                  when cd.Types.cstr_name = "Some" -> variant_of x
                | _ -> None
              in
              let kind =
                match
                  List.find_map
                    (fun (l, (a : Typedtree.expression)) ->
                      match l with
                      | Asttypes.Labelled "kind"
                      | Asttypes.Optional "kind" -> variant_of a
                      | _ -> None)
                    args
                with
                | Some "Vlock" -> `Vlock
                | _ -> `Mutex
              in
              (match cls with
              | Some c -> Some (class_root c, kind)
              | None -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

let prepass ctx (str : Typedtree.structure) =
  let reg_mu name e =
    match mu_make_class ctx e with
    | Some (cls, kind) -> (
        match List.assoc_opt name ctx.mu_classes with
        | Some (c0, _) when c0 <> cls ->
            (* ambiguous within the unit: fall back to a positional name *)
            ctx.mu_classes <-
              (name, (Printf.sprintf "mu:%s.%s" ctx.unit_name name, kind))
              :: List.remove_assoc name ctx.mu_classes
        | Some _ -> ()
        | None -> ctx.mu_classes <- (name, (cls, kind)) :: ctx.mu_classes)
    | None -> ()
  in
  (* An application aliases its functor, through every argument of a
     curried one: [Make (A) (B)] resolves to [Make]. *)
  let rec reg_alias name (me : Typedtree.module_expr) =
    match (unwrap_me me).mod_desc with
    | Tmod_ident (p, _) ->
        ctx.aliases <- (name, normalize (path_parts p)) :: ctx.aliases
    | Tmod_apply (f, _, _) -> reg_alias name f
    | _ -> ()
  in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_record { fields; _ } ->
              Array.iter
                (fun ((ld : Types.label_description), def) ->
                  match def with
                  | Typedtree.Overridden (_, fe) ->
                      reg_mu ld.Types.lbl_name fe
                  | Typedtree.Kept _ -> ())
                fields
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) -> reg_mu (Ident.name id) vb.vb_expr
          | _ -> ());
          Tast_iterator.default_iterator.value_binding self vb);
      module_binding =
        (fun self mb ->
          (match mb.mb_name.txt with
          | Some n -> reg_alias n mb.mb_expr
          | None -> ());
          Tast_iterator.default_iterator.module_binding self mb)
    }
  in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Reading .cmt files.                                                 *)

let unit_of_filename file =
  let base = Filename.remove_extension (Filename.basename file) in
  String.capitalize_ascii (strip_mangle base)

let analyze_cmt ~findings ~summaries file =
  match Cmt_format.read_cmt file with
  | exception e ->
      findings :=
        { f_file = file; f_line = 0; f_col = 0; f_rule = "read-error";
          f_message = Printexc.to_string e }
        :: !findings
  | cmt -> (
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let src =
            match cmt.Cmt_format.cmt_sourcefile with
            | Some s -> s
            | None -> file
          in
          let ctx =
            { unit_name = unit_of_filename file; src_file = src; findings;
              aliases = []; mu_classes = []; summaries }
          in
          prepass ctx str;
          walk_structure ctx ~prefix:ctx.unit_name str
      | _ -> ())

(* Recursively collect .cmt files.  Unlike sdb_lint's source walker,
   this one must descend into dot-directories: dune keeps cmt artifacts
   under .objs/byte. *)
let walk_cmts roots =
  let acc = ref [] in
  let rec go path =
    match Sys.is_directory path with
    | true ->
        Array.iter
          (fun entry -> go (Filename.concat path entry))
          (Sys.readdir path)
    | false -> if Filename.check_suffix path ".cmt" then acc := path :: !acc
    | exception Sys_error _ -> ()
  in
  List.iter go roots;
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Callee resolution and the interprocedural fixpoint.                 *)

let split_id id = String.split_on_char '.' id

(* Resolve a callsite's canonical callee id to a summary: try the exact
   id, then re-anchor it under each prefix of the caller's module path
   (longest first), then match a unique suffix anywhere. *)
let resolve_callee summaries ~caller callee =
  match Hashtbl.find_opt summaries callee with
  | Some s -> Some s
  | None ->
      let mods =
        match List.rev (split_id caller) with
        | _fn :: rev_mods -> List.rev rev_mods
        | [] -> []
      in
      let rec try_prefix mods =
        let cand = String.concat "." (mods @ [ callee ]) in
        match Hashtbl.find_opt summaries cand with
        | Some s -> Some s
        | None -> (
            match mods with
            | [] -> None
            | _ -> try_prefix (List.rev (List.tl (List.rev mods))))
      in
      (match try_prefix mods with
      | Some s -> Some s
      | None ->
          let suffix = "." ^ callee in
          let hits = ref [] in
          Hashtbl.iter
            (fun id s ->
              if String.length id > String.length suffix
                 && String.sub id
                      (String.length id - String.length suffix)
                      (String.length suffix)
                    = suffix
              then hits := s :: !hits)
            summaries;
          (match !hits with [ s ] -> Some s | _ -> None))

let fixpoint summaries =
  Hashtbl.iter
    (fun _ s ->
      (match s.s_blocks with
      | b :: _ -> s.x_blocks <- Some b.bs_what
      | [] -> ());
      s.x_acq_modes <-
        dedup (List.filter_map (fun va -> va.va_mode) s.s_vlock_acqs);
      s.x_mus <-
        dedup (List.map (fun ma -> (ma.ma_class, ma.ma_kind)) s.s_mu_acqs))
    summaries;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 100 do
    changed := false;
    incr rounds;
    Hashtbl.iter
      (fun _ s ->
        List.iter
          (fun cs ->
            match resolve_callee summaries ~caller:s.s_id cs.cs_callee with
            | None -> ()
            | Some callee ->
                (match (s.x_blocks, callee.x_blocks) with
                | None, Some w ->
                    s.x_blocks <- Some (cs.cs_callee ^ " <- " ^ w);
                    changed := true
                | _ -> ());
                List.iter
                  (fun m ->
                    if not (List.mem m s.x_acq_modes) then begin
                      s.x_acq_modes <- m :: s.x_acq_modes;
                      changed := true
                    end)
                  callee.x_acq_modes;
                List.iter
                  (fun mu ->
                    if not (List.mem mu s.x_mus) then begin
                      s.x_mus <- mu :: s.x_mus;
                      changed := true
                    end)
                  callee.x_mus)
          s.s_calls)
      summaries
  done

(* ------------------------------------------------------------------ *)
(* Rule checks over the fixpointed summaries.                          *)

let finding_of_loc file rule (loc : Location.t) msg =
  let line, col = loc_of loc in
  { f_file = file; f_line = line; f_col = col; f_rule = rule;
    f_message = msg }

let run_checks summaries =
  let findings = ref [] in
  let emit ~waivers file rule loc msg =
    if not (waives waivers rule) then
      findings := finding_of_loc file rule loc msg :: !findings
  in
  let rank_opt = function Some m -> mode_rank m | None -> 0 in
  Hashtbl.iter
    (fun _ s ->
      (* noblock *)
      (match (s.s_contract.c_noblock, s.x_blocks) with
      | true, Some w ->
          emit ~waivers:s.s_waivers s.s_file "noblock" s.s_loc
            (Printf.sprintf "%s is [@@sdb.noblock] but may block: %s" s.s_id
               w)
      | _ -> ());
      (* epoch bracket *)
      if not s.s_epoch_balanced then
        emit ~waivers:s.s_waivers s.s_file "epoch-bracket" s.s_loc
          (Printf.sprintf
             "%s: epoch enter/exit not balanced on every path" s.s_id);
      (* direct blocking sites *)
      List.iter
        (fun bs ->
          (match
             List.find_opt (fun (_, k) -> k = `Mutex) bs.bs_at.st_mus
           with
          | Some (cls, _) ->
              emit ~waivers:bs.bs_waivers s.s_file "io-under-mutex" bs.bs_loc
                (Printf.sprintf "%s: blocking call %s while holding mutex %S"
                   s.s_id bs.bs_what cls)
          | None -> ());
          if bs.bs_at.st_epoch > 0 then
            emit ~waivers:bs.bs_waivers s.s_file "epoch-safety" bs.bs_loc
              (Printf.sprintf
                 "%s: blocking call %s inside an epoch read section" s.s_id
                 bs.bs_what))
        s.s_blocks;
      (* direct lock acquisitions inside epoch sections *)
      List.iter
        (fun va ->
          if va.va_at.st_epoch > 0 then
            emit ~waivers:va.va_waivers s.s_file "epoch-safety" va.va_loc
              (Printf.sprintf
                 "%s: Vlock acquisition inside an epoch read section" s.s_id))
        s.s_vlock_acqs;
      List.iter
        (fun ma ->
          if ma.ma_at.st_epoch > 0 then
            emit ~waivers:ma.ma_waivers s.s_file "epoch-safety" ma.ma_loc
              (Printf.sprintf
                 "%s: Mu.lock of %S inside an epoch read section" s.s_id
                 ma.ma_class))
        s.s_mu_acqs;
      (* call sites *)
      List.iter
        (fun cs ->
          match resolve_callee summaries ~caller:s.s_id cs.cs_callee with
          | None -> ()
          | Some callee ->
              (match callee.s_contract.c_requires with
              | Some m when rank_opt cs.cs_at.st_mode < mode_rank m ->
                  emit ~waivers:cs.cs_waivers s.s_file "mode" cs.cs_loc
                    (Printf.sprintf
                       "%s calls %s which requires %s, but the mode held \
                        here is %s"
                       s.s_id callee.s_id (mode_name m)
                       (match cs.cs_at.st_mode with
                       | Some h -> mode_name h
                       | None -> "none/unknown"))
              | _ -> ());
              (match cs.cs_at.st_mode with
              | Some h ->
                  List.iter
                    (fun a ->
                      if mode_conflict h a then
                        emit ~waivers:cs.cs_waivers s.s_file "deadlock"
                          cs.cs_loc
                          (Printf.sprintf
                             "%s holds %s and calls %s which may acquire %s \
                              (self-deadlock)"
                             s.s_id (mode_name h) callee.s_id (mode_name a)))
                    callee.x_acq_modes
              | None -> ());
              List.iter
                (fun (cls, _) ->
                  if List.exists (fun (c, _) -> c = cls) callee.x_mus then
                    emit ~waivers:cs.cs_waivers s.s_file "deadlock" cs.cs_loc
                      (Printf.sprintf
                         "%s holds mutex %S and calls %s which may lock it \
                          again"
                         s.s_id cls callee.s_id))
                cs.cs_at.st_mus;
              (match callee.x_blocks with
              | Some w ->
                  (match
                     List.find_opt
                       (fun (_, k) -> k = `Mutex)
                       cs.cs_at.st_mus
                   with
                  | Some (cls, _) ->
                      emit ~waivers:cs.cs_waivers s.s_file "io-under-mutex"
                        cs.cs_loc
                        (Printf.sprintf
                           "%s: call to %s may block (%s) while holding \
                            mutex %S"
                           s.s_id callee.s_id w cls)
                  | None -> ());
                  if cs.cs_at.st_epoch > 0 then
                    emit ~waivers:cs.cs_waivers s.s_file "epoch-safety"
                      cs.cs_loc
                      (Printf.sprintf
                         "%s: call to %s may block (%s) inside an epoch \
                          read section"
                         s.s_id callee.s_id w)
              | None -> ());
              if cs.cs_at.st_epoch > 0
                 && (callee.x_acq_modes <> [] || callee.x_mus <> [])
              then
                emit ~waivers:cs.cs_waivers s.s_file "epoch-safety" cs.cs_loc
                  (Printf.sprintf
                     "%s: call to %s may acquire locks inside an epoch read \
                      section"
                     s.s_id callee.s_id))
        s.s_calls;
      (* exception-safe release audit *)
      List.iter
        (fun oa ->
          if not oa.oa_protected then begin
            let risky =
              match oa.oa_blocked with
              | Some w -> Some w
              | None ->
                  List.find_map
                    (fun c ->
                      match resolve_callee summaries ~caller:s.s_id c with
                      | Some callee -> (
                          match callee.x_blocks with
                          | Some w -> Some (c ^ " <- " ^ w)
                          | None -> None)
                      | None -> None)
                    oa.oa_callees
            in
            match risky with
            | Some w ->
                emit ~waivers:oa.oa_waivers s.s_file "unprotected-acquire"
                  oa.oa_loc
                  (Printf.sprintf
                     "%s: lock held across possibly-raising work (%s) with \
                      no Fun.protect releasing it on the exception path"
                     s.s_id w)
            | None -> ()
          end)
        s.s_opens)
    summaries;
  !findings

(* ------------------------------------------------------------------ *)
(* Lock-order derivation and the runtime lockdep cross-check.          *)

(* An edge (a, b) means: b was acquired while a was held.  Vlock
   acquisitions use the node name "vlock", matching the sanitizer's
   runtime graph. *)
let derive_edges summaries =
  let edges = ref [] in
  let add a b =
    let a = class_root a and b = class_root b in
    if a <> b && not (List.mem (a, b) !edges) then edges := (a, b) :: !edges
  in
  Hashtbl.iter
    (fun _ s ->
      List.iter
        (fun ma ->
          List.iter (fun (h, _) -> add h ma.ma_class) ma.ma_at.st_mus;
          if ma.ma_at.st_mode <> None then add "vlock" ma.ma_class)
        s.s_mu_acqs;
      List.iter
        (fun va ->
          List.iter (fun (h, _) -> add h "vlock") va.va_at.st_mus)
        s.s_vlock_acqs;
      List.iter
        (fun cs ->
          match resolve_callee summaries ~caller:s.s_id cs.cs_callee with
          | None -> ()
          | Some callee ->
              List.iter
                (fun (c, _) ->
                  List.iter (fun (h, _) -> add h c) cs.cs_at.st_mus;
                  if cs.cs_at.st_mode <> None then add "vlock" c)
                callee.x_mus;
              if callee.x_acq_modes <> [] then
                List.iter (fun (h, _) -> add h "vlock") cs.cs_at.st_mus)
        s.s_calls)
    summaries;
  List.sort compare !edges

let find_cycle edges =
  let nodes = dedup (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
  let succs n = List.filter_map (fun (a, b) -> if a = n then Some b else None) edges in
  let rec dfs path visiting n =
    if List.mem n path then Some (List.rev (n :: path))
    else if List.mem n visiting then None
    else
      List.fold_left
        (fun acc m -> match acc with Some _ -> acc | None -> dfs (n :: path) visiting m)
        None (succs n)
  in
  List.fold_left
    (fun acc n -> match acc with Some _ -> acc | None -> dfs [] [] n)
    None nodes

let synthetic_finding rule msg =
  { f_file = "<lockdep>"; f_line = 0; f_col = 0; f_rule = rule;
    f_message = msg }

(* Cross-check restricted to the node set of the documented runtime
   graph: every documented edge must be statically derivable, and no
   extra edge may exist among those nodes. *)
let xcheck_findings edges =
  let nodes = dedup (List.concat_map (fun (a, b) -> [ a; b ]) expected_lockdep) in
  let scoped =
    List.filter (fun (a, b) -> List.mem a nodes && List.mem b nodes) edges
  in
  let missing =
    List.filter (fun e -> not (List.mem e scoped)) expected_lockdep
  in
  let extra =
    List.filter (fun e -> not (List.mem e expected_lockdep)) scoped
  in
  List.map
    (fun (a, b) ->
      synthetic_finding "lockdep-xcheck"
        (Printf.sprintf
           "runtime lockdep edge %s -> %s (DESIGN.md §5) was not derived \
            statically"
           a b))
    missing
  @ List.map
      (fun (a, b) ->
        synthetic_finding "lockdep-xcheck"
          (Printf.sprintf
             "statically derived edge %s -> %s is absent from the runtime \
              lockdep graph in DESIGN.md §5"
             a b))
      extra

(* ------------------------------------------------------------------ *)
(* Top-level analysis.                                                 *)

type report = {
  r_findings : finding list;
  r_edges : (string * string) list;
  r_units : int;
  r_functions : int;
  r_summaries : (string, summary) Hashtbl.t;
}

let analyze ?(xcheck = true) files =
  let findings = ref [] in
  let summaries : (string, summary) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun f -> analyze_cmt ~findings ~summaries f) files;
  fixpoint summaries;
  let checks = run_checks summaries in
  let edges = derive_edges summaries in
  let cycle =
    match find_cycle edges with
    | Some path ->
        [ synthetic_finding "lock-order"
            (Printf.sprintf "lock-order cycle: %s"
               (String.concat " -> " path)) ]
    | None -> []
  in
  let xc = if xcheck then xcheck_findings edges else [] in
  let all = List.rev !findings @ checks @ cycle @ xc in
  let sorted =
    List.sort
      (fun a b ->
        match compare a.f_file b.f_file with
        | 0 -> compare (a.f_line, a.f_col, a.f_rule) (b.f_line, b.f_col, b.f_rule)
        | c -> c)
      all
  in
  { r_findings = sorted; r_edges = edges; r_units = List.length files;
    r_functions = Hashtbl.length summaries; r_summaries = summaries }

(* ------------------------------------------------------------------ *)
(* Self-test: synthetic summaries driven through the rule pass, plus   *)
(* unit tests for attribute parsing, name normalization and the        *)
(* lock-order machinery.  Needs no .cmt input.                         *)

let self_test () =
  let errs = ref [] in
  let check name cond = if not cond then errs := name :: !errs in
  let mk ?(contract = no_contract) ?(waivers = []) ?(calls = [])
      ?(vas = []) ?(mas = []) ?(blocks = []) ?(opens = [])
      ?(balanced = true) id =
    { s_id = id; s_file = "<self-test>"; s_loc = Location.none;
      s_contract = contract; s_waivers = waivers; s_calls = calls;
      s_vlock_acqs = vas; s_mu_acqs = mas; s_blocks = blocks;
      s_opens = opens; s_epoch_balanced = balanced; x_blocks = None;
      x_acq_modes = []; x_mus = [] }
  in
  let cs ?(at = empty_site) ?(w = []) callee =
    { cs_callee = callee; cs_loc = Location.none; cs_at = at; cs_waivers = w }
  in
  let run sums =
    let h = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace h s.s_id s) sums;
    fixpoint h;
    run_checks h
  in
  let has rule fs = List.exists (fun f -> f.f_rule = rule) fs in
  (* mode: call into a requires-update function with nothing held *)
  let callee_u =
    mk ~contract:{ no_contract with c_requires = Some Update } "T.apply"
  in
  check "mode fires"
    (has "mode" (run [ callee_u; mk ~calls:[ cs "T.apply" ] "T.entry" ]));
  check "mode ok when held"
    (not
       (has "mode"
          (run
             [ callee_u;
               mk
                 ~calls:
                   [ cs ~at:{ empty_site with st_mode = Some Update }
                       "T.apply" ]
                 "T.entry" ])));
  check "mode waived"
    (not
       (has "mode"
          (run [ callee_u; mk ~calls:[ cs ~w:[ "mode" ] "T.apply" ] "T.e" ])));
  (* mode downgrade along a chain: shared caller into exclusive callee *)
  let callee_x =
    mk ~contract:{ no_contract with c_requires = Some Exclusive } "T.deep"
  in
  check "mode chain downgrade"
    (has "mode"
       (run
          [ callee_x;
            mk
              ~contract:{ no_contract with c_requires = Some Shared }
              ~calls:
                [ cs ~at:{ empty_site with st_mode = Some Shared } "T.deep" ]
              "T.reader" ]));
  (* noblock: transitive through one hop *)
  let leaf =
    mk
      ~blocks:
        [ { bs_what = "Unix.fsync"; bs_loc = Location.none;
            bs_at = empty_site; bs_waivers = [] } ]
      "T.leaf"
  in
  let mid = mk ~calls:[ cs "T.leaf" ] "T.mid" in
  let top =
    mk
      ~contract:{ no_contract with c_noblock = true }
      ~calls:[ cs "T.mid" ] "T.top"
  in
  check "noblock transitive" (has "noblock" (run [ leaf; mid; top ]));
  check "noblock waived"
    (not
       (has "noblock"
          (run
             [ leaf; mid;
               mk
                 ~contract:{ no_contract with c_noblock = true }
                 ~waivers:[ "noblock" ] ~calls:[ cs "T.mid" ] "T.top" ])));
  (* deadlock: holding Update, callee may acquire Update *)
  let acq_u =
    mk
      ~vas:
        [ { va_mode = Some Update; va_loc = Location.none;
            va_at = empty_site; va_protected = true; va_waivers = [] } ]
      "T.acq"
  in
  check "deadlock interprocedural"
    (has "deadlock"
       (run
          [ acq_u;
            mk
              ~calls:
                [ cs ~at:{ empty_site with st_mode = Some Update } "T.acq" ]
              "T.holder" ]));
  check "shared reentry legal"
    (not
       (has "deadlock"
          (run
             [ mk
                 ~vas:
                   [ { va_mode = Some Shared; va_loc = Location.none;
                       va_at = empty_site; va_protected = true;
                       va_waivers = [] } ]
                 "T.racq";
               mk
                 ~calls:
                   [ cs ~at:{ empty_site with st_mode = Some Shared }
                       "T.racq" ]
                 "T.rholder" ])));
  (* io-under-mutex: direct, and exempt for `Vlock-kind classes *)
  let io_at mus =
    mk
      ~blocks:
        [ { bs_what = "closure .w_sync"; bs_loc = Location.none;
            bs_at = { empty_site with st_mus = mus }; bs_waivers = [] } ]
      "T.io"
  in
  check "io-under-mutex fires"
    (has "io-under-mutex" (run [ io_at [ ("fx.io", `Mutex) ] ]));
  check "io under vlock-kind token exempt"
    (not (has "io-under-mutex" (run [ io_at [ ("smalldb.ckpt", `Vlock) ] ])));
  (* epoch rules *)
  check "epoch-bracket fires"
    (has "epoch-bracket" (run [ mk ~balanced:false "T.eb" ]));
  check "epoch-safety fires"
    (has "epoch-safety"
       (run
          [ mk
              ~blocks:
                [ { bs_what = "Unix.read"; bs_loc = Location.none;
                    bs_at = { empty_site with st_epoch = 1 };
                    bs_waivers = [] } ]
              "T.es" ]));
  (* unprotected-acquire *)
  let oa protected =
    { oa_key = `V; oa_loc = Location.none; oa_waivers = [];
      oa_open = true; oa_protected = protected; oa_callees = [];
      oa_blocked = Some "Unix.fsync" }
  in
  check "unprotected-acquire fires"
    (has "unprotected-acquire" (run [ mk ~opens:[ oa false ] "T.ua" ]));
  check "protected acquire clean"
    (not (has "unprotected-acquire" (run [ mk ~opens:[ oa true ] "T.ua" ])));
  (* lock-order cycle detection *)
  check "cycle found"
    (find_cycle [ ("a", "b"); ("b", "c"); ("c", "a") ] <> None);
  check "expected lockdep acyclic" (find_cycle expected_lockdep = None);
  (* lockdep cross-check, both directions *)
  check "xcheck missing edges" (List.length (xcheck_findings []) = 2);
  check "xcheck clean" (xcheck_findings expected_lockdep = []);
  check "xcheck extra edge"
    (List.length
       (xcheck_findings (("smalldb.gc", "smalldb.ckpt") :: expected_lockdep))
    = 1);
  (* attribute parsing *)
  let noloc txt = { Location.txt; loc = Location.none } in
  let attr name payload = Ast_helper.Attr.mk (noloc name) payload in
  let word w =
    Parsetree.PStr
      [ Ast_helper.Str.eval
          (Ast_helper.Exp.ident (noloc (Longident.Lident w))) ]
  in
  let str s =
    Parsetree.PStr
      [ Ast_helper.Str.eval
          (Ast_helper.Exp.constant (Ast_helper.Const.string s)) ]
  in
  let bads = ref [] in
  let c =
    contract_of_attrs
      ~bad:(fun m -> bads := m :: !bads)
      [ attr "sdb.requires" (word "shared");
        attr "sdb.noblock" (Parsetree.PStr []);
        attr "sdb.bogus" (Parsetree.PStr []) ]
  in
  check "contract parse"
    (c.c_requires = Some Shared && c.c_noblock && not c.c_epoch_section);
  check "unknown attr flagged" (List.length !bads = 1);
  let badm = ref [] in
  let c2 =
    contract_of_attrs
      ~bad:(fun m -> badm := m :: !badm)
      [ attr "sdb.acquires" (word "sideways") ]
  in
  check "bad mode flagged" (c2.c_acquires = None && List.length !badm = 1);
  check "waiver parse"
    (waivers_of_attrs [ attr waiver_attr (str "io-under-mutex: reason") ]
    = [ "io-under-mutex" ]);
  check "waiver matches" (waives [ "io-under-mutex" ] "io-under-mutex");
  check "bare waiver waives all" (waives [ "*" ] "mode");
  (* name normalization *)
  check "strip mangle" (strip_mangle "sdb_wal__Wal" = "Wal");
  check "normalize wrapper"
    (normalize [ "Sdb_vlock"; "Vlock"; "acquire" ] = [ "Vlock"; "acquire" ]);
  check "normalize stdlib"
    (normalize [ "Stdlib"; "ignore" ] = [ "ignore" ]);
  check "class root" (class_root "smalldb.ckpt:orders" = "smalldb.ckpt");
  check "class root fallback" (class_root "mu:Smalldb.m" = "mu:Smalldb.m");
  check "rules documented"
    (List.for_all
       (fun r -> List.mem_assoc r rules)
       [ "mode"; "deadlock"; "noblock"; "io-under-mutex"; "epoch-bracket";
         "epoch-safety"; "lock-order"; "lockdep-xcheck";
         "unprotected-acquire"; "attr"; "read-error" ]);
  match !errs with
  | [] -> Ok ()
  | e -> Error (String.concat "; " (List.rev e))
