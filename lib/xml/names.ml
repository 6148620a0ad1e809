(* Open addressing with linear probing over a power-of-two array; the
   empty string marks a free slot (a name is never empty).  The table
   doubles when half full, so a probe ends within a few slots. *)

type t = { mutable slots : string array; mutable used : int }

let create () = { slots = Array.make 64 ""; used = 0 }

let hash b off len =
  let h = ref 0 in
  for i = off to off + len - 1 do
    h := (!h * 31) + Char.code (Bytes.unsafe_get b i)
  done;
  !h land max_int

let equal s b off len =
  String.length s = len
  &&
  let rec go i =
    i >= len || (String.unsafe_get s i = Bytes.unsafe_get b (off + i) && go (i + 1))
  in
  go 0

let rec slot slots b off len i =
  let s = Array.unsafe_get slots i in
  if String.length s = 0 || equal s b off len then i
  else slot slots b off len ((i + 1) land (Array.length slots - 1))

let place slots s =
  let b = Bytes.unsafe_of_string s and len = String.length s in
  let i = slot slots b 0 len (hash b 0 len land (Array.length slots - 1)) in
  slots.(i) <- s

let intern t b off len =
  let i = slot t.slots b off len (hash b off len land (Array.length t.slots - 1)) in
  let s = Array.unsafe_get t.slots i in
  if String.length s > 0 then s
  else begin
    let s = Bytes.sub_string b off len in
    t.slots.(i) <- s;
    t.used <- t.used + 1;
    if 2 * t.used > Array.length t.slots then begin
      let old = t.slots in
      t.slots <- Array.make (2 * Array.length old) "";
      Array.iter (fun s -> if String.length s > 0 then place t.slots s) old
    end;
    s
  end
