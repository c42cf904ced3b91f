(** The 1987 cost model.

    The paper's absolute numbers come from a MicroVAX II with local
    disks (§5).  We cannot (and are not expected to) reproduce those on
    modern hardware, but the {e operation counts} our implementation
    performs are the same — so this module converts counted activity
    (disk writes, fsyncs, bytes pickled, RPC round trips, virtual-memory
    explorations) into modelled milliseconds using per-operation costs
    calibrated against every number §5 reports:

    - a typical update totals ≈54 ms: explore 6 + modify 6 +
      pickle 22 + log write 20;
    - an enquiry ≈5 ms of memory exploration;
    - a 1 MB checkpoint ≈ one minute: 55 s pickling, 5 s disk;
    - restart ≈ 20 s to read a 1 MB checkpoint plus 20 ms per log
      entry;
    - a name-server RPC round trip ≈8 ms.

    Benches report both real measured time and these modelled times;
    EXPERIMENTS.md compares the modelled values against the paper's. *)

type costs = {
  explore_ms : float;  (** one precondition/enquiry exploration (§5: 5–6 ms) *)
  modify_ms : float;  (** one in-memory mutation (§5: 6 ms) *)
  pickle_op_ms : float;  (** fixed cost to start a pickle *)
  pickle_byte_ms : float;
  unpickle_op_ms : float;
  unpickle_byte_ms : float;
  write_op_ms : float;  (** issuing one disk write *)
  sync_ms : float;  (** one fsync (seek + rotational latency) *)
  write_byte_ms : float;
  read_op_ms : float;
  read_byte_ms : float;
  rpc_round_trip_ms : float;
}

val microvax_1987 : costs

type activity = {
  explore_ops : int;
  modify_ops : int;
  pickle_ops : int;
  pickled_bytes : int;
  unpickle_ops : int;
  unpickled_bytes : int;
  disk : Sdb_storage.Fs.Counters.t;
  rpc_round_trips : int;
}

type breakdown = {
  explore_model_ms : float;
  modify_model_ms : float;
  pickle_model_ms : float;
  unpickle_model_ms : float;
  disk_model_ms : float;
  rpc_model_ms : float;
  total_model_ms : float;
}

val model : costs -> activity -> breakdown

(** {1 Capturing activity}

    [snapshot] reads the global pickle counters, the given file
    system's counters, and the RPC round-trip counter; [since] diffs a
    later state against it.  The caller supplies the app-level
    exploration/mutation counts (the model cannot see those). *)

type snapshot

val snapshot : Sdb_storage.Fs.t -> snapshot

val since :
  ?explore_ops:int -> ?modify_ops:int -> snapshot -> Sdb_storage.Fs.t -> activity
