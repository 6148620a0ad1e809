let varint_size n =
  if n < 0 then invalid_arg "Codec.varint_size: negative";
  let rec go acc n = if n < 128 then acc else go (acc + 1) (n lsr 7) in
  go 1 n

let write_varint buf n =
  if n < 0 then invalid_arg "Codec.write_varint: negative";
  let n = ref n in
  while !n >= 128 do
    Buffer.add_char buf (Char.unsafe_chr (128 lor (!n land 127)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

(* At most nine groups: max_int is 63 bits = 9 groups of 7, and a
   continuation past shift 56 would feed bits OCaml's int cannot hold.
   Top-level, so a read allocates nothing. *)
let rec varint_from bytes pos p shift acc =
  if p >= Bytes.length bytes then invalid_arg "Codec.read_varint: truncated input";
  if shift > 56 then invalid_arg "Codec.read_varint: over-long varint";
  let b = Char.code (Bytes.get bytes p) in
  let acc = acc lor ((b land 127) lsl shift) in
  if acc < 0 then invalid_arg "Codec.read_varint: varint overflows int";
  if b < 128 then begin
    pos := p + 1;
    acc
  end
  else varint_from bytes pos (p + 1) (shift + 7) acc

let read_varint_at bytes pos = varint_from bytes pos !pos 0 0

let read_varint bytes ~pos =
  let p = ref pos in
  let v = read_varint_at bytes p in
  (v, !p)

(* ruid2 identifier: the root flag rides in the low bit of the first
   varint; then global, then local. *)
let encode_ruid2 (i : Ruid2.id) =
  let buf = Buffer.create 8 in
  write_varint buf (if i.Ruid2.is_root then 1 else 0);
  write_varint buf i.Ruid2.global;
  write_varint buf i.Ruid2.local;
  Buffer.to_bytes buf

let decode_ruid2 bytes =
  let flag, pos = read_varint bytes ~pos:0 in
  let global, pos = read_varint bytes ~pos in
  let local, pos = read_varint bytes ~pos in
  if pos <> Bytes.length bytes then
    invalid_arg "Codec.decode_ruid2: trailing bytes";
  { Ruid2.global; local; is_root = flag = 1 }

let ruid2_size (i : Ruid2.id) =
  1 + varint_size i.Ruid2.global + varint_size i.Ruid2.local

(* Multilevel identifier: component count, top index, then per component
   the index with the root flag in its low bit. *)
let encode_mruid (i : Mruid.id) =
  let buf = Buffer.create 12 in
  write_varint buf (List.length i.Mruid.comps);
  write_varint buf i.Mruid.top;
  List.iter
    (fun c ->
      write_varint buf
        ((c.Mruid.index lsl 1) lor (if c.Mruid.is_root then 1 else 0)))
    i.Mruid.comps;
  Buffer.to_bytes buf

let decode_mruid bytes =
  let count, pos = read_varint bytes ~pos:0 in
  let top, pos = read_varint bytes ~pos in
  let rec comps pos n acc =
    if n = 0 then (List.rev acc, pos)
    else begin
      let v, pos = read_varint bytes ~pos in
      comps pos (n - 1)
        ({ Mruid.index = v lsr 1; is_root = v land 1 = 1 } :: acc)
    end
  in
  let comps, pos = comps pos count [] in
  if pos <> Bytes.length bytes then
    invalid_arg "Codec.decode_mruid: trailing bytes";
  { Mruid.top; comps }

let mruid_size (i : Mruid.id) =
  varint_size (List.length i.Mruid.comps)
  + varint_size i.Mruid.top
  + List.fold_left
      (fun acc c ->
        acc
        + varint_size
            ((c.Mruid.index lsl 1) lor (if c.Mruid.is_root then 1 else 0)))
      0 i.Mruid.comps

let bignat_size n =
  let bits = Bignum.Bignat.bit_length n in
  let payload = (bits + 6) / 7 in
  let payload = max 1 payload in
  varint_size payload + payload
