exception Read_error of { file : string; offset : int; reason : string }

exception
  Io_error of {
    op : string;
    file : string option;
    errno : Unix.error option;
    message : string;
  }

exception No_space of { file : string; needed : int; available : int }

let io_error ?(op = "") ?file ?errno message = Io_error { op; file; errno; message }
let io_fail ?op ?file ?errno message = raise (io_error ?op ?file ?errno message)

let errno_transient = function
  | Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK -> true
  | _ -> false

let describe_exn = function
  | Read_error { file; offset; reason } ->
    Printf.sprintf "read error in %s at offset %d: %s" file offset reason
  | Io_error { op; file; errno; message } ->
    let where = match file with Some f -> Printf.sprintf " on %s" f | None -> "" in
    let cause =
      match errno with
      | Some e -> Printf.sprintf " (%s)" (Unix.error_message e)
      | None -> ""
    in
    if op = "" then Printf.sprintf "i/o error%s: %s%s" where message cause
    else Printf.sprintf "%s failed%s: %s%s" op where message cause
  | No_space { file; needed; available } ->
    Printf.sprintf "no space on %s: %d bytes needed, %d available" file needed
      available
  | e -> Printexc.to_string e

module Counters = struct
  type t = {
    mutable data_writes : int;
    mutable bytes_written : int;
    mutable syncs : int;
    mutable data_reads : int;
    mutable bytes_read : int;
    mutable creates : int;
    mutable renames : int;
    mutable removes : int;
  }

  let create () =
    {
      data_writes = 0;
      bytes_written = 0;
      syncs = 0;
      data_reads = 0;
      bytes_read = 0;
      creates = 0;
      renames = 0;
      removes = 0;
    }

  let reset c =
    c.data_writes <- 0;
    c.bytes_written <- 0;
    c.syncs <- 0;
    c.data_reads <- 0;
    c.bytes_read <- 0;
    c.creates <- 0;
    c.renames <- 0;
    c.removes <- 0

  let copy c =
    {
      data_writes = c.data_writes;
      bytes_written = c.bytes_written;
      syncs = c.syncs;
      data_reads = c.data_reads;
      bytes_read = c.bytes_read;
      creates = c.creates;
      renames = c.renames;
      removes = c.removes;
    }

  let diff ~after ~before =
    {
      data_writes = after.data_writes - before.data_writes;
      bytes_written = after.bytes_written - before.bytes_written;
      syncs = after.syncs - before.syncs;
      data_reads = after.data_reads - before.data_reads;
      bytes_read = after.bytes_read - before.bytes_read;
      creates = after.creates - before.creates;
      renames = after.renames - before.renames;
      removes = after.removes - before.removes;
    }

end

type reader = {
  r_file : string;
  r_size : int;
  r_read : bytes -> int -> int -> int;
  r_seek : int -> unit;
  r_close : unit -> unit;
}

type writer = {
  w_file : string;
  w_write : string -> unit;
  w_sync : unit -> unit;
  w_close : unit -> unit;
}

type random = {
  rw_file : string;
  pread : off:int -> bytes -> int -> int -> int;
  pwrite : off:int -> string -> unit;
  rw_sync : unit -> unit;
  rw_size : unit -> int;
  rw_close : unit -> unit;
}

type t = {
  fs_name : string;
  list_files : unit -> string list;
  exists : string -> bool;
  file_size : string -> int;
  open_reader : string -> reader;
  create : string -> writer;
  open_append : string -> writer;
  open_random : string -> random;
  rename : string -> string -> unit;
  remove : string -> unit;
  truncate : string -> int -> unit;
  counters : Counters.t;
}

(* One buffer of the size the file had when opened, filled in place
   and handed over without a copy; should the file have grown since,
   the rest is read on to its end. *)
let read_file fs file =
  let r = fs.open_reader file in
  let read_all () =
    let buf = Bytes.create r.r_size in
    let rec fill got =
      if got = r.r_size then got
      else
        match r.r_read buf got (r.r_size - got) with
        | 0 -> got
        | n -> fill (got + n)
    in
    let got = fill 0 in
    if got < r.r_size then Bytes.sub_string buf 0 got
    else begin
      let chunk = Bytes.create 4096 in
      let rec more acc =
        match r.r_read chunk 0 (Bytes.length chunk) with
        | 0 -> List.rev acc
        | n -> more (Bytes.sub_string chunk 0 n :: acc)
      in
      match more [] with
      | [] -> Bytes.unsafe_to_string buf
      | rest -> String.concat "" (Bytes.unsafe_to_string buf :: rest)
    end
  in
  let contents =
    try read_all ()
    with e ->
      r.r_close ();
      raise e
  in
  r.r_close ();
  contents

let write_file fs file contents =
  let w = fs.create file in
  (try
     w.w_write contents;
     w.w_sync ()
   with e ->
     w.w_close ();
     raise e);
  w.w_close ()

let prefixed fs prefix =
  let full name = prefix ^ name in
  let plen = String.length prefix in
  {
    fs_name = Printf.sprintf "%s[%s*]" fs.fs_name prefix;
    list_files =
      (fun () ->
        List.filter_map
          (fun name ->
            if String.starts_with ~prefix name then
              Some (String.sub name plen (String.length name - plen))
            else None)
          (fs.list_files ()));
    exists = (fun name -> fs.exists (full name));
    file_size = (fun name -> fs.file_size (full name));
    open_reader = (fun name -> fs.open_reader (full name));
    create = (fun name -> fs.create (full name));
    open_append = (fun name -> fs.open_append (full name));
    open_random = (fun name -> fs.open_random (full name));
    rename = (fun src dst -> fs.rename (full src) (full dst));
    remove = (fun name -> fs.remove (full name));
    truncate = (fun name len -> fs.truncate (full name) len);
    counters = fs.counters;
  }
