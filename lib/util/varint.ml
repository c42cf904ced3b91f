exception Malformed of string

(* Writers and readers below treat the OCaml int as a 63-bit pattern:
   [lsr] (logical shift) makes the loop terminate even when the sign bit
   is set, which happens for zig-zag encodings of large negatives. *)

let write_raw buf n =
  let rec go n =
    if n land lnot 0x7F = 0 then Buffer.add_char buf (Char.chr (n land 0x7F))
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

let write_unsigned buf n =
  if n < 0 then invalid_arg "Varint.write_unsigned: negative";
  write_raw buf n

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag n = (n lsr 1) lxor (- (n land 1))

let write_signed buf n = write_raw buf (zigzag n)

let read_raw s ~pos =
  let len = String.length s in
  let rec go pos shift acc =
    if pos >= len then raise (Malformed "varint: truncated");
    if shift >= Sys.int_size then raise (Malformed "varint: too long");
    let b = Char.code (String.unsafe_get s pos) in
    let chunk = b land 0x7F in
    if chunk lsl shift lsr shift <> chunk then raise (Malformed "varint: overflow");
    let acc = acc lor (chunk lsl shift) in
    if b land 0x80 = 0 then begin
      if b = 0 && shift > 0 then raise (Malformed "varint: over-long encoding");
      (acc, pos + 1)
    end
    else go (pos + 1) (shift + 7) acc
  in
  if pos < 0 then raise (Malformed "varint: negative position");
  go pos 0 0

let read_unsigned s ~pos =
  let v, next = read_raw s ~pos in
  if v < 0 then raise (Malformed "varint: unsigned overflow");
  (v, next)

let read_signed s ~pos =
  let v, next = read_raw s ~pos in
  (unzigzag v, next)
