module Dom = Rxml.Dom

let magic_v2 = "RUID2\x02"
let magic_v3 = "RUID2\x03"

(* ------------------------------------------------------------------ *)
(* Shared payload encoders                                             *)
(* ------------------------------------------------------------------ *)

let header_payload t =
  let buf = Buffer.create 8 in
  (* Whether the numbered root is the document node itself (vs its root
     element): load must restore against the same node. *)
  let is_document =
    match (Ruid2.root t).Dom.kind with Dom.Document -> 1 | _ -> 0
  in
  Codec.write_varint buf is_document;
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
  let buf = Buffer.create ((4 * Order_index.size o) + 8) in
  Codec.write_varint buf (Order_index.size o);
  Order_index.iter_pay
    (fun (i : Ruid2.id) ->
      Buffer.add_char buf (if i.is_root then '\001' else '\000');
      Codec.write_varint buf i.global;
      Codec.write_varint buf i.local)
    o;
  buf

let add_u32_le buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let sidecar_to_bytes t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic_v3;
  List.iter
    (fun payload ->
      let s = Buffer.contents payload in
      Codec.write_varint buf (String.length s);
      Buffer.add_string buf s;
      add_u32_le buf (Crc32.string s))
    [ header_payload t; ktable_payload t; ids_payload t ];
  Buffer.to_bytes buf

let sidecar_to_bytes_v2 t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic_v2;
  List.iter
    (fun payload -> Buffer.add_buffer buf payload)
    [ header_payload t; ktable_payload t; ids_payload t ];
  Buffer.to_bytes buf

(* ------------------------------------------------------------------ *)
(* Reader with section/offset context on every failure                 *)
(* ------------------------------------------------------------------ *)

type reader = { bytes : bytes; pos : int ref; mutable section : string }

let reject r msg =
  invalid_arg
    (Printf.sprintf "Persist: %s (%s section, byte %d)" msg r.section !(r.pos))

let rd_varint r =
  match Codec.read_varint_at r.bytes r.pos with
  | v -> v
  | exception Invalid_argument _ -> reject r "truncated or over-long varint"

let rd_u32_le r =
  if !(r.pos) + 4 > Bytes.length r.bytes then reject r "truncated checksum";
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
    | _ -> invalid_arg "Persist: bad magic (byte 0)"

(* Decode the three payloads into (reader for payload, payload start) per
   section, verifying framing and checksums for v3. *)
let section_readers bytes =
  match version_of_bytes bytes with
  | 2 ->
    (* One unframed stream: all three sections share the reader; the
       section label advances as parsing proceeds. *)
    let r = { bytes; pos = ref (String.length magic_v2); section = "header" } in
    `Unframed r
  | _ ->
    let r = { bytes; pos = ref (String.length magic_v3); section = "" } in
    let sections =
      List.map
        (fun name ->
          r.section <- name;
          let frame_start = !(r.pos) in
          let len = rd_varint r in
          let payload_start = !(r.pos) in
          if len < 0 || payload_start + len > Bytes.length bytes then begin
            r.pos := frame_start;
            reject r "section length exceeds sidecar size"
          end;
          r.pos := payload_start + len;
          let stored = rd_u32_le r in
          let actual = Crc32.bytes bytes ~pos:payload_start ~len in
          if stored <> actual then begin
            r.pos := payload_start;
            reject r
              (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)"
                 stored actual)
          end;
          (name, payload_start, len))
        [ "header"; "ktable"; "ids" ]
    in
    if !(r.pos) <> Bytes.length bytes then begin
      r.section <- "trailer";
      reject r "trailing bytes after ids section"
    end;
    `Framed (bytes, sections)

let parse_payloads ~header ~ktable ~ids bytes =
  match section_readers bytes with
  | `Unframed r ->
    let h = header r in
    r.section <- "ktable";
    let k = ktable r in
    r.section <- "ids";
    let i = ids r in
    if !(r.pos) <> Bytes.length bytes then begin
      r.section <- "trailer";
      reject r "trailing bytes in sidecar"
    end;
    (h, k, i)
  | `Framed (bytes, sections) ->
    let sub name f =
      let _, start, len =
        List.find (fun (n, _, _) -> n = name) sections
      in
      let r = { bytes; pos = ref start; section = name } in
      let v = f r in
      if !(r.pos) <> start + len then reject r "trailing bytes in section";
      v
    in
    (sub "header" header, sub "ktable" ktable, sub "ids" ids)

let read_header r =
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
  if nnodes > (Bytes.length r.bytes - !(r.pos)) / 3 then
    reject r "node count exceeds the section";
  let ids = Array.make nnodes { Ruid2.global = 0; local = 0; is_root = false } in
  for j = 0 to nnodes - 1 do
    let flag = rd_varint r in
    let global = rd_varint r in
    let local = rd_varint r in
    ids.(j) <- { Ruid2.global; local; is_root = flag = 1 }
  done;
  ids

let sidecar_of_bytes root bytes =
  let (_is_document, kappa), rows, ids =
    parse_payloads ~header:read_header ~ktable:read_ktable ~ids:read_ids bytes
  in
  let ktable =
    try Ktable.make rows
    with Invalid_argument msg ->
      invalid_arg (Printf.sprintf "Persist: %s (ktable section)" msg)
  in
  Ruid2.restore ~kappa ~ktable ~ids root

(* The root-kind flag, readable without a full parse (both versions): the
   first varint of the header payload, which in v3 sits after the section's
   length varint. *)
let root_kind_of_bytes bytes =
  let r = { bytes; pos = ref (String.length magic_v2); section = "header" } in
  if version_of_bytes bytes = 3 then ignore (rd_varint r);
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
