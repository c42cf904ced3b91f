(** The name server's RPC protocol: typed client stubs and the matching
    server handlers (the role the paper's generated marshalling stubs
    play in §6).

    Procedures cover the client-visible enquiry/browse/update surface
    plus the replica-support calls that §4's propagation
    ([updates_since]) and restore-from-replica ([fetch_meta],
    [fetch_chunk]) are built on. *)

val serve : Sdb_nameserver.Nameserver.t -> Rpc.Transport.t -> unit
(** [Rpc.Server.serve] with every procedure, bound to this name
    server. *)

module Client : sig
  type t

  val create :
    ?deadline_s:float ->
    ?retry:Rpc.retry_policy ->
    ?retry_budget:Backoff.Budget.t ->
    ?reconnect:(unit -> Rpc.Transport.t) ->
    Rpc.Transport.t -> t
  (** See {!Rpc.Client.create}.  Every procedure except [cas] and
      [checkpoint] is idempotent (enquiries are read-only; updates are
      last-writer-wins assignments) and is re-attempted under [retry]
      after a transport failure when [reconnect] is available. *)

  val close : t -> unit

  (** Enquiries (each one round trip). *)

  val lookup : t -> Sdb_nameserver.Name_path.t -> string option
  val list_children : t -> Sdb_nameserver.Name_path.t -> string list option

  val export :
    ?depth:int -> t -> Sdb_nameserver.Name_path.t -> Sdb_nameserver.Ns_data.tree option

  val count_nodes : t -> int

  val find :
    t -> string ->
    ((Sdb_nameserver.Name_path.t * string option) list, string) result
  (** Glob search; the pattern is compiled server-side. *)

  (** Updates. *)

  val set_value : t -> Sdb_nameserver.Name_path.t -> string option -> unit
  val write_subtree :
    t -> Sdb_nameserver.Name_path.t -> Sdb_nameserver.Ns_data.tree -> unit
  val delete_subtree : t -> Sdb_nameserver.Name_path.t -> unit
  val create_name : t -> Sdb_nameserver.Name_path.t -> unit

  val compare_and_set :
    t -> Sdb_nameserver.Name_path.t -> expected:string option -> string option ->
    (unit, string) result

  (** Replica support. *)

  val lsn : t -> int
  val updates_since :
    t -> int -> (int * Sdb_nameserver.Nameserver.update) list option

  (** Maintenance. *)

  val checkpoint : t -> unit

  val digest : t -> string
  (** MD5 of the canonical pickled snapshot; equal digests mean equal
      databases (used by the long-term consistency check). *)

  val metrics : t -> string
  (** The server process's {!Sdb_obs.Metrics.render} output
      (Prometheus text exposition). *)

  val traces : t -> max_n:int -> min_dur_s:float -> Sdb_obs.Trace.span list
  (** The server's most recent (up to [max_n]) slow spans of duration
      at least [min_dur_s], newest first — the contents of its
      process-global {!Sdb_obs.Trace.Slow} ring.  Empty when the
      server runs without a ring. *)

  val scrub : t -> repair:bool -> Smalldb.scrub_report
  (** Run an online integrity scrub on the server (see
      {!Sdb_nameserver.Nameserver.scrub}). *)

  val health : t -> Smalldb.health

  val ping : t -> int
  (** Heartbeat probe: the server's committed LSN.  The cheapest round
      trip in the protocol — what the replica failure detector sends. *)

  val fetch_meta : t -> int * string * int
  (** Begin (or restart) a resumable state transfer: [(lsn, digest,
      total_bytes)] of the server's checkpoint image
      ({!Smalldb.Make.image}) at [lsn].  Chunks fetched with the
      returned [lsn] compose into exactly the string whose MD5 is
      [digest], which {!Sdb_nameserver.Nameserver.install} takes. *)

  val fetch_chunk : t -> lsn:int -> offset:int -> len:int -> string option
  (** Bytes [\[offset, offset+len)] (clamped to the total) of the
      image pinned by {!fetch_meta} at [lsn]; [None] when the
      server's state has moved past that LSN — restart from
      {!fetch_meta}.  Idempotent, so a transfer interrupted by a
      connection reset resumes at the first byte the receiver is
      missing. *)
end
