module P = Sdb_pickle.Pickle
module Fs = Sdb_storage.Fs
module Wal = Sdb_wal.Wal

let technique = "atomic commit (redo log + in place)"
let data_file = "atomic.db"
let log_file_name = "atomic.log"
let trim_threshold = 1 lsl 20

(* A redo record is the set of full page images one update writes. *)
let codec_images = P.list (P.pair P.int P.string)
let log_fp = P.fingerprint codec_images

type t = {
  fs : Fs.t;
  store : Paged_store.t;
  mutable log : Wal.Writer.t;
  mutable closed : bool;
}

let images_to_wire images =
  List.map (fun { Paged_store.index; bytes } -> (index, bytes)) images

let images_of_wire wire =
  List.map (fun (index, bytes) -> { Paged_store.index; bytes }) wire

(* Recovery: replay every committed redo record (idempotent physical
   redo), sync the repaired data file, then start a fresh log. *)
let recover fs store =
  if fs.Fs.exists log_file_name then begin
    match
      Wal.Reader.fold fs log_file_name ~fingerprint:log_fp
        ~policy:Wal.Reader.Stop_at_damage ~init:[] ~f:(fun acc entry ->
          images_of_wire (P.decode codec_images entry.Wal.Reader.payload) :: acc)
    with
    | Error e -> Error (Format.asprintf "atomic_db: %a" Wal.pp_error e)
    | Ok (batches, _outcome) ->
      if batches <> [] then begin
        List.iter
          (fun images -> Paged_store.apply store ~sync:false images)
          (List.rev batches);
        Paged_store.sync store
      end;
      Ok ()
  end
  else Ok ()

let fresh_log fs = Wal.Writer.create fs log_file_name ~fingerprint:log_fp ~base_lsn:0

let open_ fs =
  match Paged_store.open_ fs ~file:data_file () with
  | Error e -> Error e
  | Ok store -> (
    match recover fs store with
    | Error e -> Error e
    | Ok () ->
      (* Trimming at open keeps restart idempotent and the log small. *)
      let log = fresh_log fs in
      Ok { fs; store; log; closed = false })

let check t = if t.closed then Fs.io_fail "atomic_db: used after close"

let trim t =
  (* Data was synced by the last apply; the history is now redundant. *)
  Wal.Writer.close t.log;
  t.log <- fresh_log t.fs

let commit t images =
  if images <> [] then begin
    (* Write 1: the commit record. *)
    ignore
      (Wal.Writer.append_sync t.log (P.encode codec_images (images_to_wire images))
        : int);
    (* Write 2: the data pages, in place. *)
    Paged_store.apply t.store ~sync:true images;
    if Wal.Writer.length t.log > trim_threshold then trim t
  end

let get t k =
  check t;
  Paged_store.get t.store k

let set t k v =
  check t;
  commit t (Paged_store.prepare_set t.store k v)

let remove t k =
  check t;
  commit t (Paged_store.prepare_remove t.store k)

let iter t f =
  check t;
  Paged_store.iter t.store f

let length t =
  check t;
  Paged_store.length t.store

let verify t =
  check t;
  Paged_store.verify t.store

let quiesce t =
  check t;
  trim t

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Wal.Writer.close t.log with Fs.Io_error _ -> ());
    Paged_store.close t.store
  end
