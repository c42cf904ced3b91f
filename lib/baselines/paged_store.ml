module Fs = Sdb_storage.Fs

let default_page_size = 4096
let default_buckets = 64
let magic = "SDBPGST1"

type t = {
  fs_handle : Fs.random;
  psize : int;
  buckets : int;
  mutable pages : int;
  mutable closed : bool;
}

type page_image = { index : int; bytes : string }

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* FNV-1a, stable across runs (unlike Hashtbl.hash we must not depend
   on for an on-disk layout). *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL)

(* ------------------------------------------------------------------ *)
(* Page codec: [next:u32][count:u16][records], record =
   [klen:u16][vlen:u16][key][value].                                   *)

let page_header = 6
let record_overhead = 4

let record_size k v = record_overhead + String.length k + String.length v

let records_size records =
  List.fold_left (fun acc (k, v) -> acc + record_size k v) 0 records

let fits psize records = page_header + records_size records <= psize

let encode_page psize next records =
  if not (fits psize records) then invalid_arg "Paged_store: page overflow";
  let b = Bytes.make psize '\x00' in
  Bytes.set_int32_le b 0 (Int32.of_int next);
  Bytes.set_uint16_le b 4 (List.length records);
  let pos = ref page_header in
  List.iter
    (fun (k, v) ->
      Bytes.set_uint16_le b !pos (String.length k);
      Bytes.set_uint16_le b (!pos + 2) (String.length v);
      Bytes.blit_string k 0 b (!pos + 4) (String.length k);
      Bytes.blit_string v 0 b (!pos + 4 + String.length k) (String.length v);
      pos := !pos + record_size k v)
    records;
  Bytes.unsafe_to_string b

let decode_page psize index s =
  if String.length s <> psize then corrupt "page %d: short page" index;
  let next = Int32.to_int (String.get_int32_le s 0) in
  let count = String.get_uint16_le s 4 in
  if next < 0 then corrupt "page %d: negative link" index;
  let rec go pos remaining acc =
    if remaining = 0 then (next, List.rev acc)
    else begin
      if pos + record_overhead > psize then corrupt "page %d: record overruns page" index;
      let klen = String.get_uint16_le s pos in
      let vlen = String.get_uint16_le s (pos + 2) in
      if pos + record_overhead + klen + vlen > psize then
        corrupt "page %d: record overruns page" index;
      let k = String.sub s (pos + record_overhead) klen in
      let v = String.sub s (pos + record_overhead + klen) vlen in
      go (pos + record_overhead + klen + vlen) (remaining - 1) ((k, v) :: acc)
    end
  in
  go page_header count []

(* ------------------------------------------------------------------ *)
(* Raw page I/O                                                        *)

let read_page t index =
  if index <= 0 || index >= t.pages then corrupt "page link %d out of range" index;
  let buf = Bytes.create t.psize in
  let rec fill got =
    if got < t.psize then begin
      let n = t.fs_handle.Fs.pread ~off:((index * t.psize) + got) buf got (t.psize - got) in
      if n = 0 then corrupt "page %d: truncated file" index;
      fill (got + n)
    end
  in
  fill 0;
  Bytes.unsafe_to_string buf

let check t = if t.closed then Fs.io_fail "Paged_store: used after close"

(* ------------------------------------------------------------------ *)
(* Open / create                                                       *)

let encode_header psize buckets =
  let b = Bytes.make psize '\x00' in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int32_le b 8 (Int32.of_int psize);
  Bytes.set_int32_le b 12 (Int32.of_int buckets);
  Bytes.unsafe_to_string b

let open_ fs ~file ?(page_size = default_page_size) ?(buckets = default_buckets) () =
  if page_size < 64 then invalid_arg "Paged_store: page_size too small";
  if buckets < 1 then invalid_arg "Paged_store: buckets must be positive";
  let h = fs.Fs.open_random file in
  let size = h.Fs.rw_size () in
  if size = 0 then begin
    (* Fresh store: header plus empty bucket pages, one sync. *)
    h.Fs.pwrite ~off:0 (encode_header page_size buckets);
    let empty = encode_page page_size 0 [] in
    for b = 1 to buckets do
      h.Fs.pwrite ~off:(b * page_size) empty
    done;
    h.Fs.rw_sync ();
    Ok { fs_handle = h; psize = page_size; buckets; pages = buckets + 1; closed = false }
  end
  else begin
    let hdr = Bytes.create 16 in
    let got = h.Fs.pread ~off:0 hdr 0 16 in
    if got < 16 then Error "paged_store: truncated header"
    else if not (String.equal (Bytes.sub_string hdr 0 8) magic) then
      Error "paged_store: bad magic"
    else begin
      let psize = Int32.to_int (Bytes.get_int32_le hdr 8) in
      let nbuckets = Int32.to_int (Bytes.get_int32_le hdr 12) in
      if psize < 64 || nbuckets < 1 then Error "paged_store: implausible header"
      else if size mod psize <> 0 then
        Error "paged_store: file size not a whole number of pages"
      else
        Ok
          {
            fs_handle = h;
            psize;
            buckets = nbuckets;
            pages = size / psize;
            closed = false;
          }
    end
  end

let npages t = t.pages

let record_fits t ~key ~value = page_header + record_size key value <= t.psize

let bucket_of t k = 1 + (fnv1a k mod t.buckets)

(* Materialize a bucket chain: [(index, next, records); ...]. *)
let read_chain t k =
  let rec go index acc seen =
    if List.mem index seen then corrupt "cyclic chain at page %d" index;
    let next, records = decode_page t.psize index (read_page t index) in
    let acc = (index, next, records) :: acc in
    if next = 0 then List.rev acc else go next acc (index :: seen)
  in
  go (bucket_of t k) [] []

let get t k =
  check t;
  let chain = read_chain t k in
  List.find_map
    (fun (_, _, records) ->
      List.find_map (fun (k', v) -> if String.equal k' k then Some v else None) records)
    chain

(* Diff-based update planning: edit the in-memory chain, then emit
   images only for pages whose contents changed. *)
let images_of_diff t before after =
  List.filter_map
    (fun (index, next, records) ->
      let unchanged =
        List.exists
          (fun (i, n, r) -> i = index && n = next && r = records)
          before
      in
      if unchanged then None
      else Some { index; bytes = encode_page t.psize next records })
    after

let prepare_set t k v =
  check t;
  if not (record_fits t ~key:k ~value:v) then
    invalid_arg "Paged_store: record larger than a page";
  let before = read_chain t k in
  let without =
    List.map
      (fun (i, n, records) ->
        (i, n, List.filter (fun (k', _) -> not (String.equal k' k)) records))
      before
  in
  (* Place into the first chain page with room. *)
  let rec place = function
    | [] -> None
    | (i, n, records) :: rest ->
      if fits t.psize ((k, v) :: records) then
        Some ((i, n, records @ [ (k, v) ]) :: rest)
      else Option.map (fun rest -> (i, n, records) :: rest) (place rest)
  in
  match place without with
  | Some after -> images_of_diff t before after
  | None ->
    (* Chain full: append an overflow page and link the tail to it. *)
    let fresh = t.pages in
    let after =
      List.map
        (fun (i, n, records) -> if n = 0 then (i, fresh, records) else (i, n, records))
        without
    in
    images_of_diff t before after
    @ [ { index = fresh; bytes = encode_page t.psize 0 [ (k, v) ] } ]

let prepare_remove t k =
  check t;
  let before = read_chain t k in
  let after =
    List.map
      (fun (i, n, records) ->
        (i, n, List.filter (fun (k', _) -> not (String.equal k' k)) records))
      before
  in
  images_of_diff t before after

let apply t ~sync images =
  check t;
  List.iter
    (fun { index; bytes } ->
      if String.length bytes <> t.psize then invalid_arg "Paged_store.apply: bad image";
      t.fs_handle.Fs.pwrite ~off:(index * t.psize) bytes;
      t.pages <- max t.pages (index + 1))
    images;
  if sync && images <> [] then t.fs_handle.Fs.rw_sync ()

let sync t =
  check t;
  t.fs_handle.Fs.rw_sync ()

let iter t f =
  check t;
  for b = 1 to t.buckets do
    let rec walk index seen =
      if List.mem index seen then corrupt "cyclic chain at page %d" index;
      let next, records = decode_page t.psize index (read_page t index) in
      List.iter (fun (k, v) -> f k v) records;
      if next <> 0 then walk next (index :: seen)
    in
    walk b []
  done

let length t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let verify t =
  match iter t (fun _ _ -> ()) with
  | () -> Ok ()
  | exception Corrupt m -> Error ("paged_store: " ^ m)
  | exception Fs.Read_error { offset; reason; _ } ->
    Error (Printf.sprintf "paged_store: damaged page at offset %d: %s" offset reason)

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.fs_handle.Fs.rw_close ()
  end
