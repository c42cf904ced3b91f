module Fs = Sdb_storage.Fs
module Pickle = Sdb_pickle.Pickle

type costs = {
  explore_ms : float;
  modify_ms : float;
  pickle_op_ms : float;
  pickle_byte_ms : float;
  unpickle_op_ms : float;
  unpickle_byte_ms : float;
  write_op_ms : float;
  sync_ms : float;
  write_byte_ms : float;
  read_op_ms : float;
  read_byte_ms : float;
  rpc_round_trip_ms : float;
}

(* Calibration (§5):
   - update pickle of ~300 B of parameters = 22 ms and a 1 MiB
     checkpoint pickle = 55 s give pickle ≈ 6 ms + 52 µs/B (the pickle
     package interprets run-time type structure per field, hence the
     large per-byte term);
   - the log write of ~330 B = 20 ms and 5 s of disk for a 1 MiB
     checkpoint give write ≈ 2 ms + fsync 16.3 ms + 5 µs/B;
   - reading back a 1 MiB checkpoint in 20 s gives
     unpickle ≈ 6 ms + 18 µs/B with reads at 1 µs/B;
   - exploring/modifying the memory structure 6 ms each, and 8 ms per
     RPC round trip, are used directly. *)
let microvax_1987 =
  {
    explore_ms = 6.0;
    modify_ms = 6.0;
    pickle_op_ms = 6.0;
    pickle_byte_ms = 0.052;
    unpickle_op_ms = 6.0;
    unpickle_byte_ms = 0.018;
    write_op_ms = 2.0;
    sync_ms = 16.3;
    write_byte_ms = 0.005;
    read_op_ms = 2.0;
    read_byte_ms = 0.001;
    rpc_round_trip_ms = 8.0;
  }

type activity = {
  explore_ops : int;
  modify_ops : int;
  pickle_ops : int;
  pickled_bytes : int;
  unpickle_ops : int;
  unpickled_bytes : int;
  disk : Fs.Counters.t;
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

let model c a =
  let f = float_of_int in
  let explore_model_ms = f a.explore_ops *. c.explore_ms in
  let modify_model_ms = f a.modify_ops *. c.modify_ms in
  let pickle_model_ms =
    (f a.pickle_ops *. c.pickle_op_ms) +. (f a.pickled_bytes *. c.pickle_byte_ms)
  in
  let unpickle_model_ms =
    (f a.unpickle_ops *. c.unpickle_op_ms) +. (f a.unpickled_bytes *. c.unpickle_byte_ms)
  in
  let disk_model_ms =
    (f a.disk.Fs.Counters.data_writes *. c.write_op_ms)
    +. (f a.disk.Fs.Counters.syncs *. c.sync_ms)
    +. (f a.disk.Fs.Counters.bytes_written *. c.write_byte_ms)
    +. (f a.disk.Fs.Counters.data_reads *. c.read_op_ms)
    +. (f a.disk.Fs.Counters.bytes_read *. c.read_byte_ms)
  in
  let rpc_model_ms = f a.rpc_round_trips *. c.rpc_round_trip_ms in
  {
    explore_model_ms;
    modify_model_ms;
    pickle_model_ms;
    unpickle_model_ms;
    disk_model_ms;
    rpc_model_ms;
    total_model_ms =
      explore_model_ms +. modify_model_ms +. pickle_model_ms +. unpickle_model_ms
      +. disk_model_ms +. rpc_model_ms;
  }

type snapshot = {
  s_pickled : int;
  s_unpickled : int;
  s_pickle_ops : int;
  s_unpickle_ops : int;
  s_disk : Fs.Counters.t;
  s_trips : int;
}

let snapshot fs =
  {
    s_pickled = Pickle.Counters.bytes_pickled ();
    s_unpickled = Pickle.Counters.bytes_unpickled ();
    s_pickle_ops = Pickle.Counters.pickle_ops ();
    s_unpickle_ops = Pickle.Counters.unpickle_ops ();
    s_disk = Fs.Counters.copy fs.Fs.counters;
    s_trips = Sdb_rpc.Rpc.Transport.round_trips ();
  }

let since ?(explore_ops = 0) ?(modify_ops = 0) snap fs =
  {
    explore_ops;
    modify_ops;
    pickle_ops = Pickle.Counters.pickle_ops () - snap.s_pickle_ops;
    pickled_bytes = Pickle.Counters.bytes_pickled () - snap.s_pickled;
    unpickle_ops = Pickle.Counters.unpickle_ops () - snap.s_unpickle_ops;
    unpickled_bytes = Pickle.Counters.bytes_unpickled () - snap.s_unpickled;
    disk = Fs.Counters.diff ~after:fs.Fs.counters ~before:snap.s_disk;
    rpc_round_trips = Sdb_rpc.Rpc.Transport.round_trips () - snap.s_trips;
  }
