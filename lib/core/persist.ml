module Dom = Rxml.Dom
module O = Order_index

let magic_v2 = "RUID2\x02"
let magic_v3 = "RUID2\x03"
let magic_v4 = "RUID2\x04"

(* ------------------------------------------------------------------ *)
(* Payload encoders                                                    *)
(* ------------------------------------------------------------------ *)

(* Whether the numbered root is the document node itself (vs its root
   element): load must restore against the same node. *)
let root_kind t =
  match (Ruid2.root t).Dom.kind with Dom.Document -> 1 | _ -> 0

let add_u32_le buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

(* CRC-32 of the preorder subtree sizes, as varints: the tree shape the
   frame's positions and fan-outs are checked against.  [sizes] feeds them
   in document order; no varint is laid out in memory. *)
let shape_digest sizes =
  let crc = ref Crc32.start in
  sizes (fun size -> crc := Crc32.add_varint !crc size);
  Crc32.finish !crc

(* The shape comes from the numbering's order index, which holds every
   subtree's extent: no walk of the tree. *)
let v4_header t =
  let o = Ruid2.order t in
  let buf = Buffer.create 16 in
  Codec.write_varint buf (root_kind t);
  Codec.write_varint buf (Ruid2.kappa t);
  Codec.write_varint buf (O.size o);
  add_u32_le buf (shape_digest (fun f -> O.iter_sizes f o));
  buf

(* Area 1's fan-out, then per further area in document order of its
   root: the preorder distance from the previous area root, the frame
   slot and the K fan-out.  One pass over the identifiers. *)
let frame_payload t =
  let kappa = Ruid2.kappa t and kt = Ruid2.ktable t in
  let buf = Buffer.create 256 in
  Codec.write_varint buf (Ktable.fanout kt 1);
  let at = ref 0 and prev = ref 0 in
  O.iter_pay
    (fun (i : Ruid2.id) ->
      if i.is_root && !at > 0 then begin
        Codec.write_varint buf (!at - !prev);
        Codec.write_varint buf ((i.global - 2) mod kappa);
        Codec.write_varint buf (Ktable.fanout kt i.global);
        prev := !at
      end;
      incr at)
    (Ruid2.order t);
  buf

let legacy_header t =
  let buf = Buffer.create 8 in
  Codec.write_varint buf (root_kind t);
  Codec.write_varint buf (Ruid2.kappa t);
  buf

let ktable_payload t =
  let buf = Buffer.create 256 in
  let rows = Ktable.rows (Ruid2.ktable t) in
  Codec.write_varint buf (List.length rows);
  List.iter
    (fun r ->
      Codec.write_varint buf r.Ktable.global;
      Codec.write_varint buf r.Ktable.root_local;
      Codec.write_varint buf r.Ktable.fanout)
    rows;
  buf

(* Varints straight from the order index's payloads, in document order
   (the layout of Codec.encode_ruid2). *)
let ids_payload t =
  let o = Ruid2.order t in
  let buf = Buffer.create ((4 * O.size o) + 8) in
  Codec.write_varint buf (O.size o);
  O.iter_pay
    (fun (i : Ruid2.id) ->
      Buffer.add_char buf (if i.is_root then '\001' else '\000');
      Codec.write_varint buf i.global;
      Codec.write_varint buf i.local)
    o;
  buf

let framed magic payloads =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  List.iter
    (fun payload ->
      let s = Buffer.contents payload in
      Codec.write_varint buf (String.length s);
      Buffer.add_string buf s;
      add_u32_le buf (Crc32.string s))
    payloads;
  Buffer.to_bytes buf

let sidecar_to_bytes t = framed magic_v4 [ v4_header t; frame_payload t ]

let sidecar_to_bytes_v3 t =
  framed magic_v3 [ legacy_header t; ktable_payload t; ids_payload t ]

let sidecar_to_bytes_v2 t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic_v2;
  List.iter (Buffer.add_buffer buf)
    [ legacy_header t; ktable_payload t; ids_payload t ];
  Buffer.to_bytes buf

(* ------------------------------------------------------------------ *)
(* Reader with section/offset context on every failure                 *)
(* ------------------------------------------------------------------ *)

(* [stop]: where the section being read ends; no varint reads past it. *)
type reader = {
  bytes : bytes;
  pos : int ref;
  mutable section : string;
  stop : int;
}

let reject r msg =
  invalid_arg
    (Printf.sprintf "Persist: %s (%s section, byte %d)" msg r.section !(r.pos))

let rejectf r fmt = Printf.ksprintf (reject r) fmt

let rd_varint r =
  let start = !(r.pos) in
  match Codec.read_varint_at r.bytes r.pos with
  | v when !(r.pos) <= r.stop -> v
  | _ ->
    r.pos := start;
    reject r "varint runs past the end of the section"
  | exception Invalid_argument _ -> reject r "truncated or over-long varint"

let rd_u32_le r =
  if !(r.pos) + 4 > r.stop then reject r "truncated checksum";
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get r.bytes (!(r.pos) + i))
  done;
  r.pos := !(r.pos) + 4;
  !v

let version_of_bytes bytes =
  let n = String.length magic_v2 in
  if Bytes.length bytes < n then invalid_arg "Persist: bad magic (byte 0)"
  else
    match Bytes.sub_string bytes 0 n with
    | s when s = magic_v2 -> 2
    | s when s = magic_v3 -> 3
    | s when s = magic_v4 -> 4
    | _ -> invalid_arg "Persist: bad magic (byte 0)"

(* The payload spans of a framed (v3 or v4) sidecar's sections, in
   order, each one's length and checksum verified. *)
let framed_spans bytes names =
  let len_all = Bytes.length bytes in
  let r =
    { bytes; pos = ref (String.length magic_v2); section = ""; stop = len_all }
  in
  let spans =
    List.map
      (fun name ->
        r.section <- name;
        let frame_start = !(r.pos) in
        let len = rd_varint r in
        let payload_start = !(r.pos) in
        if len < 0 || payload_start + len > len_all then begin
          r.pos := frame_start;
          reject r "section length exceeds sidecar size"
        end;
        r.pos := payload_start + len;
        let stored = rd_u32_le r in
        let actual = Crc32.bytes bytes ~pos:payload_start ~len in
        if stored <> actual then begin
          r.pos := payload_start;
          rejectf r "checksum mismatch (stored %08x, computed %08x)" stored actual
        end;
        (name, payload_start, len))
      names
  in
  if !(r.pos) <> len_all then begin
    r.section <- "trailer";
    rejectf r "trailing bytes after %s section" (List.nth names (List.length names - 1))
  end;
  spans

(* [read] over one section's payload, which it must consume exactly. *)
let in_section bytes spans name read =
  let _, start, len = List.find (fun (n, _, _) -> n = name) spans in
  let r = { bytes; pos = ref start; section = name; stop = start + len } in
  let v = read r in
  if !(r.pos) <> start + len then reject r "trailing bytes in section";
  v

(* ---- v4: the frame ---- *)

let sidecar_of_v4 root bytes =
  let spans = framed_spans bytes [ "header"; "frame" ] in
  let section name read = in_section bytes spans name read in
  let pre = O.preorder root in
  let n = Array.length pre.nodes in
  let kappa =
    section "header" (fun r ->
        ignore (rd_varint r);
        let kappa = rd_varint r in
        let count = rd_varint r in
        if count <> n then rejectf r "node count %d, the tree has %d" count n;
        let stored = rd_u32_le r
        and actual =
          shape_digest (fun f ->
              for i = 0 to n - 1 do
                f (pre.last.(i) - i + 1)
              done)
        in
        if stored <> actual then
          rejectf r "shape digest %08x, the tree's is %08x" stored actual;
        kappa)
  in
  let cut = Bytes.make n '\000' in
  let slots, fanouts =
    section "frame" (fun r ->
        let fan0 = rd_varint r in
        (* every further area takes at least three bytes *)
        let cap = 1 + ((r.stop - !(r.pos)) / 3) in
        let slots = Array.make cap 0 and fanouts = Array.make cap fan0 in
        let areas = ref 1 and at = ref 0 in
        while !(r.pos) < r.stop do
          let gap = rd_varint r in
          if gap < 1 || gap > n - 1 - !at then
            rejectf r "area %d lies %d positions after preorder position %d, \
                       outside the tree's %d nodes"
              (!areas + 1) gap !at n;
          at := !at + gap;
          Bytes.unsafe_set cut !at '\001';
          slots.(!areas) <- rd_varint r;
          fanouts.(!areas) <- rd_varint r;
          incr areas
        done;
        (Array.sub slots 0 !areas, Array.sub fanouts 0 !areas))
  in
  Ruid2.restore ~kappa ~cut ~slots ~fanouts pre

(* ---- v2 and v3: every identifier and K ---- *)

let read_legacy_header r =
  let is_document = rd_varint r in
  let kappa = rd_varint r in
  (is_document, kappa)

let read_ktable r =
  let nrows = rd_varint r in
  if nrows < 0 then reject r "negative row count";
  List.init nrows (fun _ ->
      let global = rd_varint r in
      let root_local = rd_varint r in
      let fanout = rd_varint r in
      { Ktable.global; root_local; fanout })

let read_ids r =
  let nnodes = rd_varint r in
  if nnodes < 0 then reject r "negative node count";
  (* an identifier takes at least three bytes *)
  if nnodes > (r.stop - !(r.pos)) / 3 then
    reject r "node count exceeds the section";
  let ids = Array.make nnodes { Ruid2.global = 0; local = 0; is_root = false } in
  for j = 0 to nnodes - 1 do
    let flag = rd_varint r in
    let global = rd_varint r in
    let local = rd_varint r in
    ids.(j) <- { Ruid2.global; local; is_root = flag = 1 }
  done;
  ids

let legacy_payloads bytes =
  match version_of_bytes bytes with
  | 2 ->
    (* One unframed stream: the section label advances as parsing
       proceeds. *)
    let r =
      { bytes; pos = ref (String.length magic_v2); section = "header";
        stop = Bytes.length bytes }
    in
    let h = read_legacy_header r in
    r.section <- "ktable";
    let k = read_ktable r in
    r.section <- "ids";
    let i = read_ids r in
    if !(r.pos) <> Bytes.length bytes then begin
      r.section <- "trailer";
      reject r "trailing bytes in sidecar"
    end;
    (h, k, i)
  | _ ->
    let spans = framed_spans bytes [ "header"; "ktable"; "ids" ] in
    ( in_section bytes spans "header" read_legacy_header,
      in_section bytes spans "ktable" read_ktable,
      in_section bytes spans "ids" read_ids )

let legacy_error section fmt =
  Printf.ksprintf
    (fun s -> invalid_arg (Printf.sprintf "Persist: %s (%s section)" s section))
    fmt

(* A v2 or v3 sidecar stores what v4 derives.  Its frame is read off the
   identifiers — the cut from the root flags, each area's slot from its
   root's global, its fan-out from K — and restored as v4's is; the
   derived identifiers and K rows must then be the stored ones. *)
let sidecar_of_legacy root bytes =
  let (_, kappa), rows, ids = legacy_payloads bytes in
  let ktable =
    try Ktable.make rows
    with Invalid_argument msg ->
      invalid_arg (Printf.sprintf "Persist: %s (ktable section)" msg)
  in
  let pre = O.preorder root in
  let n = Array.length pre.nodes in
  if Array.length ids <> n then
    legacy_error "ids" "%d identifiers for a tree of %d nodes" (Array.length ids) n;
  if not (Ruid2.id_equal ids.(0) { global = 1; local = 1; is_root = true }) then
    legacy_error "ids" "tree root carries %s" (Ruid2.id_to_string ids.(0));
  if kappa < 1 then legacy_error "header" "kappa %d < 1" kappa;
  let cut = Bytes.make n '\000' and roots = ref [] in
  for i = n - 1 downto 1 do
    if ids.(i).is_root then begin
      Bytes.unsafe_set cut i '\001';
      roots := i :: !roots
    end
  done;
  let roots = Array.of_list (0 :: !roots) in
  let count = Array.length roots in
  if count <> Ktable.size ktable then
    legacy_error "ktable" "K has %d rows for %d area roots" (Ktable.size ktable) count;
  let slots = Array.make count 0 and fanouts = Array.make count 0 in
  Array.iteri
    (fun b at ->
      let i = ids.(at) in
      if b > 0 then begin
        if i.global < 2 then
          legacy_error "ids" "area root %s is not a frame child" (Ruid2.id_to_string i);
        slots.(b) <- (i.global - 2) mod kappa
      end;
      match Ktable.find ktable i.global with
      | None -> legacy_error "ktable" "area %d has no K row" i.global
      | Some row -> fanouts.(b) <- row.Ktable.fanout)
    roots;
  let t = Ruid2.restore ~kappa ~cut ~slots ~fanouts pre in
  let at = ref 0 in
  O.iter_pay
    (fun (d : Ruid2.id) ->
      let s = ids.(!at) in
      if not (Ruid2.id_equal s d) then
        if s.is_root && s.local = d.local then
          legacy_error "ids" "area root %s is not a frame child of area %d"
            (Ruid2.id_to_string s) (((d.global - 2) / kappa) + 1)
        else
          legacy_error "ids" "node at preorder position %d carries %s, enumerated as %s"
            !at (Ruid2.id_to_string s) (Ruid2.id_to_string d);
      incr at)
    (Ruid2.order t);
  List.iter2
    (fun (stored : Ktable.row) (derived : Ktable.row) ->
      if stored.root_local <> derived.root_local then
        legacy_error "ktable" "K row %d records root_local %d but the root's \
                               leaf index is %d"
          stored.global stored.root_local derived.root_local)
    (Ktable.rows ktable) (Ktable.rows (Ruid2.ktable t));
  t

let sidecar_of_bytes root bytes =
  if version_of_bytes bytes = 4 then sidecar_of_v4 root bytes
  else sidecar_of_legacy root bytes

(* The root-kind flag, readable without a full parse (every version): the
   first varint of the header payload, which from v3 on sits after the
   section's length varint. *)
let root_kind_of_bytes bytes =
  let r =
    { bytes; pos = ref (String.length magic_v2); section = "header";
      stop = Bytes.length bytes }
  in
  if version_of_bytes bytes >= 3 then ignore (rd_varint r);
  rd_varint r = 1

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

(* Atomic publication: write a sibling temp file, fsync (inside
   [vfs.store]), rename over the destination.  A rename that fails takes
   its temp file with it; a simulated crash leaves it, as a dead process
   would. *)
let store_atomic vfs ~attempts path bytes =
  let tmp = path ^ ".tmp" in
  Vfs.with_retries ~attempts (fun () -> vfs.Vfs.store tmp bytes);
  try Vfs.with_retries ~attempts (fun () -> vfs.Vfs.rename ~src:tmp ~dst:path)
  with
  | Vfs.Crash _ as e -> raise e
  | e ->
    (try vfs.Vfs.remove tmp with _ -> ());
    raise e

(* One copy out of the serializer's buffer. *)
let xml_to_bytes t =
  let buf = Buffer.create 1024 in
  Rxml.Serializer.to_buffer buf (Ruid2.root t);
  Buffer.to_bytes buf

let save ?(vfs = Vfs.real) ?(attempts = 5) t ~xml ~sidecar =
  store_atomic vfs ~attempts xml (xml_to_bytes t);
  store_atomic vfs ~attempts sidecar (sidecar_to_bytes t)

let load ?(vfs = Vfs.real) ?(attempts = 5) ~xml ~sidecar () =
  let xml_bytes = Vfs.with_retries ~attempts (fun () -> vfs.Vfs.load xml) in
  let doc =
    Rxml.Parser.parse_string ~keep_whitespace:true (Bytes.to_string xml_bytes)
  in
  let bytes = Vfs.with_retries ~attempts (fun () -> vfs.Vfs.load sidecar) in
  let root =
    if root_kind_of_bytes bytes then doc else Dom.root_element doc
  in
  (doc, sidecar_of_bytes root bytes)

(* The [load] path without the file system: reconstruct a document and its
   numbering from in-memory snapshot bytes.  Used by WAL checkpoint
   recovery, which verifies the bytes' checksums against the checkpoint
   record before trusting them. *)
let of_bytes ~xml ~sidecar =
  let doc =
    Rxml.Parser.parse_string ~keep_whitespace:true (Bytes.to_string xml)
  in
  let root = if root_kind_of_bytes sidecar then doc else Dom.root_element doc in
  (doc, sidecar_of_bytes root sidecar)
