(* Reflected CRC-32 with polynomial 0xEDB88320, as in zlib/PNG. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 1 to 8 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update crc b =
  let t = Lazy.force table in
  t.((crc lxor b) land 0xFF) lxor (crc lsr 8)

let bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes: range out of bounds";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := update !crc (Char.code (Bytes.get b i))
  done;
  !crc lxor 0xFFFFFFFF

let start = 0xFFFFFFFF
let finish crc = crc lxor 0xFFFFFFFF

let string s =
  let crc = ref start in
  String.iter (fun c -> crc := update !crc (Char.code c)) s;
  finish !crc

(* The bytes of Codec.write_varint: seven bits a byte, low group first,
   the high bit set on every byte but the last. *)
let rec add_varint crc n =
  if n < 128 then update crc n
  else add_varint (update crc (128 lor (n land 127))) (n lsr 7)
