type t = int32

let polynomial = 0xEDB88320

(* The register and the table in native ints: the low 32 bits hold the
   CRC, and no [int32] is boxed per byte. *)
let table =
  lazy
    (let t = Array.make 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then polynomial lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     t)

let empty = 0l

(* The public state is the plain digest; internally the register is kept
   complemented, so we fold the complement in and out at each call. *)
let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.update";
  let tbl = Lazy.force table in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    c := Array.unsafe_get tbl ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let update_string crc s =
  update crc (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let digest_bytes b ~pos ~len = update empty b ~pos ~len
let digest_string s = update_string empty s
let to_int32 c = c
let equal = Int32.equal
