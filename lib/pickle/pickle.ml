module Varint = Sdb_util.Varint

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

module Counters = struct
  let pickled = Atomic.make 0
  let unpickled = Atomic.make 0
  let p_ops = Atomic.make 0
  let u_ops = Atomic.make 0
  let add a n = ignore (Atomic.fetch_and_add a n : int)
  let bytes_pickled () = Atomic.get pickled
  let bytes_unpickled () = Atomic.get unpickled
  let pickle_ops () = Atomic.get p_ops
  let unpickle_ops () = Atomic.get u_ops

  let reset () =
    Atomic.set pickled 0;
    Atomic.set unpickled 0;
    Atomic.set p_ops 0;
    Atomic.set u_ops 0
end

(* One-byte type tags.  Every value starts with its tag; readers check
   it, so type confusion in a corrupted stream is caught immediately. *)
let tag_unit = '\x01'
let tag_bool = '\x02'
let tag_int = '\x04'
let tag_float = '\x07'
let tag_string = '\x08'
let tag_pair = '\x0A'
let tag_triple = '\x0B'
let tag_list = '\x0D'
let tag_option = '\x0F'
let tag_result = '\x10'
let tag_record = '\x11'
let tag_variant = '\x12'
let tag_shared_def = '\x13'
let tag_shared_ref = '\x14'
let tag_ref = '\x15'
let tag_hashtbl = '\x16'

let tag_name = function
  | '\x01' -> "unit"
  | '\x02' -> "bool"
  | '\x04' -> "int"
  | '\x07' -> "float"
  | '\x08' -> "string"
  | '\x0A' -> "pair"
  | '\x0B' -> "triple"
  | '\x0D' -> "list"
  | '\x0F' -> "option"
  | '\x10' -> "result"
  | '\x11' -> "record"
  | '\x12' -> "variant"
  | '\x13' -> "shared-def"
  | '\x14' -> "shared-ref"
  | '\x15' -> "ref"
  | '\x16' -> "hashtbl"
  | c -> Printf.sprintf "unknown(0x%02X)" (Char.code c)

type writer = {
  buf : Buffer.t;
  share : (int, (Obj.t * int) list) Hashtbl.t;
  mutable next_id : int;
}

type slot = { slot_fp : string; mutable slot_value : Obj.t; mutable slot_filled : bool }

type reader = {
  src : string;
  mutable pos : int;
  mutable slots : slot array;
  mutable nslots : int;
}

type 'a t = { d : Descr.t; w : writer -> 'a -> unit; r : reader -> 'a }

let descr c = c.d
let fingerprint c = Descr.fingerprint c.d
let fingerprint_hex c = Descr.fingerprint_hex c.d

(* ------------------------------------------------------------------ *)
(* Writer / reader helpers                                             *)

let new_writer buf = { buf; share = Hashtbl.create 7; next_id = 0 }
let new_reader src = { src; pos = 0; slots = [||]; nslots = 0 }

let share_find wr obj =
  let h = Hashtbl.hash obj in
  match Hashtbl.find_opt wr.share h with
  | None -> None
  | Some entries ->
    let rec scan = function
      | [] -> None
      | (o, id) :: rest -> if o == obj then Some id else scan rest
    in
    scan entries

let share_add wr obj id =
  let h = Hashtbl.hash obj in
  let entries = Option.value (Hashtbl.find_opt wr.share h) ~default:[] in
  Hashtbl.replace wr.share h ((obj, id) :: entries)

let reserve_slot rd slot =
  if rd.nslots = Array.length rd.slots then begin
    let cap = if rd.nslots = 0 then 8 else 2 * rd.nslots in
    let bigger = Array.make cap slot in
    Array.blit rd.slots 0 bigger 0 rd.nslots;
    rd.slots <- bigger
  end;
  rd.slots.(rd.nslots) <- slot;
  rd.nslots <- rd.nslots + 1;
  rd.nslots - 1

let need rd n =
  if n < 0 || rd.pos + n > String.length rd.src then
    err "pickle: truncated input at offset %d (need %d more bytes)" rd.pos n

let read_byte rd =
  need rd 1;
  let c = String.unsafe_get rd.src rd.pos in
  rd.pos <- rd.pos + 1;
  c

let expect_tag rd tag =
  let c = read_byte rd in
  if c <> tag then
    err "pickle: expected %s at offset %d, found %s" (tag_name tag) (rd.pos - 1)
      (tag_name c)

(* Lengths, arities and case indices are nearly always one byte: those
   are written and read in place, the general varint code only handles
   longer encodings. *)
let write_uvarint wr n =
  if n >= 0 && n < 0x80 then Buffer.add_char wr.buf (Char.unsafe_chr n)
  else Varint.write_unsigned wr.buf n
let write_svarint wr n = Varint.write_signed wr.buf n

let read_uvarint rd =
  let c =
    if rd.pos < String.length rd.src then Char.code (String.unsafe_get rd.src rd.pos)
    else 0x80
  in
  if c < 0x80 then begin
    rd.pos <- rd.pos + 1;
    c
  end
  else
    match Varint.read_unsigned rd.src ~pos:rd.pos with
    | v, p ->
      rd.pos <- p;
      v
    | exception Varint.Malformed m -> err "pickle: %s at offset %d" m rd.pos

let read_svarint rd =
  match Varint.read_signed rd.src ~pos:rd.pos with
  | v, p ->
    rd.pos <- p;
    v
  | exception Varint.Malformed m -> err "pickle: %s at offset %d" m rd.pos

(* A sequence length can never exceed the remaining byte count (every
   element costs at least its tag byte), which bounds allocations made
   on behalf of corrupted input. *)
let read_length rd what =
  let len = read_uvarint rd in
  if len > String.length rd.src - rd.pos then
    err "pickle: %s length %d exceeds remaining input at offset %d" what len rd.pos;
  len

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)

let unit =
  {
    d = Descr.Unit;
    w = (fun wr () -> Buffer.add_char wr.buf tag_unit);
    r = (fun rd -> expect_tag rd tag_unit);
  }

let bool =
  {
    d = Descr.Bool;
    w =
      (fun wr b ->
        Buffer.add_char wr.buf tag_bool;
        Buffer.add_char wr.buf (if b then '\x01' else '\x00'));
    r =
      (fun rd ->
        expect_tag rd tag_bool;
        match read_byte rd with
        | '\x00' -> false
        | '\x01' -> true
        | c -> err "pickle: invalid bool byte 0x%02X at offset %d" (Char.code c) (rd.pos - 1));
  }

let int =
  {
    d = Descr.Int;
    w =
      (fun wr n ->
        Buffer.add_char wr.buf tag_int;
        write_svarint wr n);
    r =
      (fun rd ->
        expect_tag rd tag_int;
        read_svarint rd);
  }

let float =
  {
    d = Descr.Float;
    w =
      (fun wr f ->
        Buffer.add_char wr.buf tag_float;
        Buffer.add_int64_le wr.buf (Int64.bits_of_float f));
    r =
      (fun rd ->
        expect_tag rd tag_float;
        need rd 8;
        let v = Int64.float_of_bits (String.get_int64_le rd.src rd.pos) in
        rd.pos <- rd.pos + 8;
        v);
  }

let read_counted_string rd =
  let len = read_uvarint rd in
  need rd len;
  let s = String.sub rd.src rd.pos len in
  rd.pos <- rd.pos + len;
  s

let string =
  {
    d = Descr.String;
    w =
      (fun wr s ->
        Buffer.add_char wr.buf tag_string;
        write_uvarint wr (String.length s);
        Buffer.add_string wr.buf s);
    r =
      (fun rd ->
        expect_tag rd tag_string;
        read_counted_string rd);
  }

(* ------------------------------------------------------------------ *)
(* Compounds                                                           *)

let pair a b =
  {
    d = Descr.Pair (a.d, b.d);
    w =
      (fun wr (x, y) ->
        Buffer.add_char wr.buf tag_pair;
        a.w wr x;
        b.w wr y);
    r =
      (fun rd ->
        expect_tag rd tag_pair;
        let x = a.r rd in
        let y = b.r rd in
        (x, y));
  }

let triple a b c =
  {
    d = Descr.Triple (a.d, b.d, c.d);
    w =
      (fun wr (x, y, z) ->
        Buffer.add_char wr.buf tag_triple;
        a.w wr x;
        b.w wr y;
        c.w wr z);
    r =
      (fun rd ->
        expect_tag rd tag_triple;
        let x = a.r rd in
        let y = b.r rd in
        let z = c.r rd in
        (x, y, z));
  }

(* Any collection goes on the wire as a list: the length, then each
   element in [iter]'s order.  Reads hand the elements back as an array
   in wire order; the first element read seeds it. *)
let collection ~length ~iter ~of_array elt =
  {
    d = Descr.List elt.d;
    w =
      (fun wr c ->
        let len = length c in
        Buffer.add_char wr.buf tag_list;
        write_uvarint wr len;
        let written = ref 0 in
        iter
          (fun x ->
            incr written;
            elt.w wr x)
          c;
        if !written <> len then
          err "pickle: collection length %d but %d elements written" len !written);
    r =
      (fun rd ->
        expect_tag rd tag_list;
        let len = read_length rd "list" in
        if len = 0 then of_array [||]
        else begin
          let arr = Array.make len (elt.r rd) in
          for i = 1 to len - 1 do
            arr.(i) <- elt.r rd
          done;
          of_array arr
        end);
  }

let list elt = collection ~length:List.length ~iter:List.iter ~of_array:Array.to_list elt

let option elt =
  {
    d = Descr.Option elt.d;
    w =
      (fun wr v ->
        Buffer.add_char wr.buf tag_option;
        match v with
        | None -> Buffer.add_char wr.buf '\x00'
        | Some x ->
          Buffer.add_char wr.buf '\x01';
          elt.w wr x);
    r =
      (fun rd ->
        expect_tag rd tag_option;
        match read_byte rd with
        | '\x00' -> None
        | '\x01' -> Some (elt.r rd)
        | c ->
          err "pickle: invalid option discriminant 0x%02X at offset %d" (Char.code c)
            (rd.pos - 1));
  }

let result ok error =
  {
    d = Descr.Result (ok.d, error.d);
    w =
      (fun wr v ->
        Buffer.add_char wr.buf tag_result;
        match v with
        | Ok x ->
          Buffer.add_char wr.buf '\x00';
          ok.w wr x
        | Error e ->
          Buffer.add_char wr.buf '\x01';
          error.w wr e);
    r =
      (fun rd ->
        expect_tag rd tag_result;
        match read_byte rd with
        | '\x00' -> Ok (ok.r rd)
        | '\x01' -> Error (error.r rd)
        | c ->
          err "pickle: invalid result discriminant 0x%02X at offset %d" (Char.code c)
            (rd.pos - 1));
  }

let hashtbl key value =
  {
    d = Descr.Hashtbl (key.d, value.d);
    w =
      (fun wr tbl ->
        Buffer.add_char wr.buf tag_hashtbl;
        write_uvarint wr (Hashtbl.length tbl);
        Hashtbl.iter
          (fun k v ->
            key.w wr k;
            value.w wr v)
          tbl);
    r =
      (fun rd ->
        expect_tag rd tag_hashtbl;
        let len = read_length rd "hashtbl" in
        let tbl = Hashtbl.create (max 16 (min len 65536)) in
        for _ = 1 to len do
          let k = key.r rd in
          let v = value.r rd in
          Hashtbl.replace tbl k v
        done;
        tbl);
  }

let conv ~name to_wire of_wire base =
  {
    d = Descr.Conv (name, base.d);
    w = (fun wr v -> base.w wr (to_wire v));
    r = (fun rd -> of_wire (base.r rd));
  }

(* ------------------------------------------------------------------ *)
(* Variants                                                            *)

type 'a case = {
  c_name : string;
  c_descr : Descr.t option;
  c_recognize : 'a -> bool;
  c_write : writer -> 'a -> unit;
  c_read : reader -> 'a;
}

let case name codec proj inj =
  {
    c_name = name;
    c_descr = Some codec.d;
    c_recognize = (fun v -> proj v <> None);
    c_write =
      (fun wr v ->
        match proj v with
        | Some payload -> codec.w wr payload
        | None -> err "pickle: variant case %s: projection failed during write" name);
    c_read = (fun rd -> inj (codec.r rd));
  }

let case0 name value recognize =
  {
    c_name = name;
    c_descr = None;
    c_recognize = recognize;
    c_write = (fun _ _ -> ());
    c_read = (fun _ -> value);
  }

let variant ~name cases =
  if cases = [] then invalid_arg "Pickle.variant: no cases";
  let arr = Array.of_list cases in
  let d = Descr.Variant (name, List.map (fun c -> (c.c_name, c.c_descr)) cases) in
  let w wr v =
    let rec find i =
      if i >= Array.length arr then
        err "pickle: variant %s: no case recognizes the value" name
      else if arr.(i).c_recognize v then i
      else find (i + 1)
    in
    let i = find 0 in
    Buffer.add_char wr.buf tag_variant;
    write_uvarint wr i;
    arr.(i).c_write wr v
  in
  let r rd =
    expect_tag rd tag_variant;
    let i = read_uvarint rd in
    if i >= Array.length arr then
      err "pickle: variant %s: case index %d out of range (%d cases)" name i
        (Array.length arr);
    arr.(i).c_read rd
  in
  { d; w; r }

let enum ~name values =
  if values = [] then invalid_arg "Pickle.enum: no values";
  let cases =
    List.map (fun (case_name, v) -> case0 case_name v (fun x -> x = v)) values
  in
  variant ~name cases

(* ------------------------------------------------------------------ *)
(* Records                                                             *)

type ('r, 'f) field = { f_name : string; f_codec_d : Descr.t; f_write : writer -> 'r -> unit; f_read : reader -> 'f }

let field name codec get =
  {
    f_name = name;
    f_codec_d = codec.d;
    f_write = (fun wr r -> codec.w wr (get r));
    f_read = codec.r;
  }

let record_header name fds =
  Descr.Record (name, List.map (fun (n, d) -> (n, d)) fds)

let write_record_prefix wr nfields =
  Buffer.add_char wr.buf tag_record;
  write_uvarint wr nfields

let read_record_prefix rd name nfields =
  expect_tag rd tag_record;
  let n = read_uvarint rd in
  if n <> nfields then
    err "pickle: record %s: expected %d fields, found %d" name nfields n

let record2 name f1 f2 make =
  {
    d = record_header name [ (f1.f_name, f1.f_codec_d); (f2.f_name, f2.f_codec_d) ];
    w =
      (fun wr r ->
        write_record_prefix wr 2;
        f1.f_write wr r;
        f2.f_write wr r);
    r =
      (fun rd ->
        read_record_prefix rd name 2;
        let a = f1.f_read rd in
        let b = f2.f_read rd in
        make a b);
  }

let record3 name f1 f2 f3 make =
  {
    d =
      record_header name
        [ (f1.f_name, f1.f_codec_d); (f2.f_name, f2.f_codec_d); (f3.f_name, f3.f_codec_d) ];
    w =
      (fun wr r ->
        write_record_prefix wr 3;
        f1.f_write wr r;
        f2.f_write wr r;
        f3.f_write wr r);
    r =
      (fun rd ->
        read_record_prefix rd name 3;
        let a = f1.f_read rd in
        let b = f2.f_read rd in
        let c = f3.f_read rd in
        make a b c);
  }

let record4 name f1 f2 f3 f4 make =
  {
    d =
      record_header name
        [
          (f1.f_name, f1.f_codec_d);
          (f2.f_name, f2.f_codec_d);
          (f3.f_name, f3.f_codec_d);
          (f4.f_name, f4.f_codec_d);
        ];
    w =
      (fun wr r ->
        write_record_prefix wr 4;
        f1.f_write wr r;
        f2.f_write wr r;
        f3.f_write wr r;
        f4.f_write wr r);
    r =
      (fun rd ->
        read_record_prefix rd name 4;
        let a = f1.f_read rd in
        let b = f2.f_read rd in
        let c = f3.f_read rd in
        let d = f4.f_read rd in
        make a b c d);
  }

let record5 name f1 f2 f3 f4 f5 make =
  {
    d =
      record_header name
        [
          (f1.f_name, f1.f_codec_d);
          (f2.f_name, f2.f_codec_d);
          (f3.f_name, f3.f_codec_d);
          (f4.f_name, f4.f_codec_d);
          (f5.f_name, f5.f_codec_d);
        ];
    w =
      (fun wr r ->
        write_record_prefix wr 5;
        f1.f_write wr r;
        f2.f_write wr r;
        f3.f_write wr r;
        f4.f_write wr r;
        f5.f_write wr r);
    r =
      (fun rd ->
        read_record_prefix rd name 5;
        let a = f1.f_read rd in
        let b = f2.f_read rd in
        let c = f3.f_read rd in
        let d = f4.f_read rd in
        let e = f5.f_read rd in
        make a b c d e);
  }

(* ------------------------------------------------------------------ *)
(* Schema evolution                                                    *)

type 'a old_version = Old : { codec : 'b t; upgrade : 'b -> 'a } -> 'a old_version

let old_version codec upgrade = Old { codec; upgrade }

let versioned ~name ~history latest =
  let olds = Array.of_list history in
  let current = Array.length olds in
  (* The fingerprint must survive evolutions, so the descriptor names
     the family rather than the current structure. *)
  let d = Descr.Conv ("versioned:" ^ name, Descr.Int) in
  let w wr v =
    Buffer.add_char wr.buf tag_variant;
    write_uvarint wr current;
    latest.w wr v
  in
  let r rd =
    expect_tag rd tag_variant;
    let idx = read_uvarint rd in
    if idx = current then latest.r rd
    else if idx < current then begin
      let (Old { codec; upgrade }) = olds.(idx) in
      upgrade (codec.r rd)
    end
    else
      err "pickle: versioned %s: version %d is newer than this program (max %d)" name
        idx current
  in
  { d; w; r }

(* ------------------------------------------------------------------ *)
(* Recursion and sharing                                               *)

let mu name f =
  let rec self =
    {
      d = Descr.Recur name;
      w = (fun wr v -> (Lazy.force body).w wr v);
      r = (fun rd -> (Lazy.force body).r rd);
    }
  and body = lazy (f self) in
  let b = Lazy.force body in
  { b with d = Descr.Named (name, b.d) }

(* Sharing protocol: the writer assigns ids in pre-order at the first
   encounter of each shared value; the reader reserves slot ids in the
   same order, so ids agree without appearing on the wire for
   definitions.  Each slot records the defining codec's fingerprint; a
   back-reference checks it, so a corrupted id cannot smuggle a value
   of the wrong type through [Obj.obj]. *)

let slot_lookup rd id fp what =
  if id >= rd.nslots then
    err "pickle: %s: back-reference to undefined id %d at offset %d" what id rd.pos;
  let slot = rd.slots.(id) in
  if not (String.equal slot.slot_fp fp) then
    err "pickle: %s: back-reference id %d has mismatched type" what id;
  if not slot.slot_filled then
    err "pickle: %s: cycle through immutable shared value (id %d)" what id;
  Obj.obj slot.slot_value

let shared inner =
  let d = Descr.Shared inner.d in
  let fp = Descr.fingerprint d in
  let w wr v =
    let obj = Obj.repr v in
    match share_find wr obj with
    | Some id ->
      Buffer.add_char wr.buf tag_shared_ref;
      write_uvarint wr id
    | None ->
      let id = wr.next_id in
      wr.next_id <- id + 1;
      share_add wr obj id;
      Buffer.add_char wr.buf tag_shared_def;
      inner.w wr v
  in
  let r rd =
    match read_byte rd with
    | c when c = tag_shared_def ->
      let id =
        reserve_slot rd { slot_fp = fp; slot_value = Obj.repr 0; slot_filled = false }
      in
      let v = inner.r rd in
      let slot = rd.slots.(id) in
      slot.slot_value <- Obj.repr v;
      slot.slot_filled <- true;
      v
    | c when c = tag_shared_ref ->
      let id = read_uvarint rd in
      slot_lookup rd id fp "shared"
    | c ->
      err "pickle: expected shared-def/shared-ref at offset %d, found %s" (rd.pos - 1)
        (tag_name c)
  in
  { d; w; r }

let ref_cell inner =
  {
    d = Descr.Ref inner.d;
    w =
      (fun wr cell ->
        Buffer.add_char wr.buf tag_ref;
        inner.w wr !cell);
    r =
      (fun rd ->
        expect_tag rd tag_ref;
        ref (inner.r rd));
  }

let shared_ref ~dummy inner =
  let d = Descr.Shared (Descr.Ref inner.d) in
  let fp = Descr.fingerprint d in
  let w wr cell =
    let obj = Obj.repr cell in
    match share_find wr obj with
    | Some id ->
      Buffer.add_char wr.buf tag_shared_ref;
      write_uvarint wr id
    | None ->
      let id = wr.next_id in
      wr.next_id <- id + 1;
      share_add wr obj id;
      Buffer.add_char wr.buf tag_shared_def;
      inner.w wr !cell
  in
  let r rd =
    match read_byte rd with
    | c when c = tag_shared_def ->
      (* Register the cell before its content is read, so a cyclic
         reference back to this cell resolves. *)
      let cell = ref dummy in
      let _id =
        reserve_slot rd { slot_fp = fp; slot_value = Obj.repr cell; slot_filled = true }
      in
      cell := inner.r rd;
      cell
    | c when c = tag_shared_ref ->
      let id = read_uvarint rd in
      slot_lookup rd id fp "shared_ref"
    | c ->
      err "pickle: expected shared-def/shared-ref at offset %d, found %s" (rd.pos - 1)
        (tag_name c)
  in
  { d; w; r }

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

let encode_into buf codec v =
  let wr = new_writer buf in
  let base = Buffer.length buf in
  codec.w wr v;
  Counters.add Counters.pickled (Buffer.length buf - base);
  Counters.add Counters.p_ops 1

let encode codec v =
  let buf = Buffer.create 256 in
  encode_into buf codec v;
  Buffer.contents buf

(* The value at [pos] must run to the end of [s]. *)
let decode_from codec s pos =
  let rd = new_reader s in
  rd.pos <- pos;
  let v = codec.r rd in
  if rd.pos <> String.length s then
    err "pickle: %d trailing bytes after value" (String.length s - rd.pos);
  Counters.add Counters.unpickled (String.length s - pos);
  Counters.add Counters.u_ops 1;
  v

let decode codec s = decode_from codec s 0

let decode_result codec s =
  match decode codec s with
  | v -> Result.Ok v
  | exception Error m -> Result.Error m

let magic = "SDBP1"

(* Header and body share one buffer: the body is encoded in place
   after the header, never copied into it. *)
let to_string codec v =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_string buf (fingerprint codec);
  encode_into buf codec v;
  Buffer.contents buf

(* The body is decoded where it sits, after the header. *)
let of_string codec s =
  let mlen = String.length magic in
  let fplen = 16 in
  if String.length s < mlen + fplen then Result.Error "pickle: input shorter than header"
  else if not (String.equal (String.sub s 0 mlen) magic) then
    Result.Error "pickle: bad magic (not a pickle)"
  else begin
    let fp = String.sub s mlen fplen in
    let expected = fingerprint codec in
    if not (String.equal fp expected) then
      Result.Error
        (Printf.sprintf "pickle: type fingerprint mismatch: data %s, codec %s"
           (Digest.to_hex fp) (Digest.to_hex expected))
    else
      match decode_from codec s (mlen + fplen) with
      | v -> Result.Ok v
      | exception Error m -> Result.Error m
  end
