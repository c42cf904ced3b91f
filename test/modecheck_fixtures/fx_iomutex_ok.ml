(* Waived twin of Fx_iomutex: the read under the mutex is waived, and
   Mu.with_lock releases on every path. *)

let m = Sdb_check.Mu.make "fx.iomutex_ok"

let slow_under_lock fs =
  Sdb_check.Mu.with_lock m (fun () ->
      String.length
        (Sdb_storage.Fs.read_file fs "some-file"
        [@sdb.check.allow "io-under-mutex: fixture waiver"]))
