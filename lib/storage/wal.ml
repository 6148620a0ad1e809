module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Codec = Ruid.Codec
module Crc32 = Ruid.Crc32
module Vfs = Ruid.Vfs

(* Two headers distinguish a base segment from one that starts at a
   checkpoint: if the first frame of an "RWAC" segment does not decode to a
   checkpoint record, recovery must refuse rather than silently fall back
   to the (stale) base snapshot.  The fifth byte is the format version: a
   well-formed journal of another version is recognized and refused as
   such — never mistaken for a torn header and "repaired" into an empty
   file. *)
let format_version = 2
let header = "RWAL\x02"
let header_ckpt = "RWAC\x02"

type op =
  | Insert of { parent_rank : int; pos : int; tag : string }
  | Delete of { rank : int }

type record = { seq : int; op : op; area : int; changed : int }

type checkpoint = {
  gen : int;
  base_seq : int;
  xml_crc : int;
  sidecar_crc : int;
}

let pp_op ppf = function
  | Insert { parent_rank; pos; tag } ->
    Format.fprintf ppf "insert(<%s> at parent@%d, pos %d)" tag parent_rank pos
  | Delete { rank } -> Format.fprintf ppf "delete(@%d)" rank

let pp_record ppf r =
  Format.fprintf ppf "#%d %a -> area %d, %d ids rewritten" r.seq pp_op r.op
    r.area r.changed

let pp_checkpoint ppf c =
  Format.fprintf ppf "checkpoint gen %d after record #%d" c.gen c.base_seq

exception Replay_error of string

let replay_error fmt = Format.kasprintf (fun s -> raise (Replay_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Applying logical operations                                         *)
(* ------------------------------------------------------------------ *)

let area_enumerating t parent =
  let r = Ruid.Frame.own_area_root (R2.frame t) parent in
  match R2.global_of_area t r with
  | Some g -> g
  | None -> replay_error "area root of node %d has no global index" r.Dom.serial

(* Ranks resolve through the numbering's order index, never a tree walk.
   A DELETE reads its node's parent pointer for identity only (in a shared
   version it may name an older version of the parent): the area comes
   from the cut set by serial, and [delete_subtree] resolves the rest. *)
let apply t op =
  let nth rank =
    match R2.node_at_rank t rank with
    | Some n -> n
    | None ->
      replay_error "rank %d out of range (%d nodes)" rank
        (Ruid.Order_index.size (R2.order t))
  in
  try
    match op with
    | Insert { parent_rank; pos; tag } ->
      let parent = nth parent_rank in
      let area = area_enumerating t parent in
      let changed = R2.insert_node t ~parent ~pos (Dom.element tag) in
      (area, changed)
    | Delete { rank } ->
      if rank = 0 then replay_error "cannot delete the tree root (rank 0)";
      let node = nth rank in
      let parent =
        match node.Dom.parent with
        | Some p -> p
        | None -> replay_error "node at rank %d is detached" rank
      in
      let area = area_enumerating t parent in
      let changed = R2.delete_subtree t node in
      (area, changed)
  with Invalid_argument msg -> replay_error "operation rejected: %s" msg

(* ------------------------------------------------------------------ *)
(* Record framing                                                      *)
(* ------------------------------------------------------------------ *)

(* Every frame is [varint payload-length | payload | CRC-32 LE], and every
   payload starts with a kind tag: 0 = one record, 1 = a commit batch of
   consecutive records (one checksum covers the whole batch, so a torn
   batch drops atomically), 2 = a checkpoint. *)
let kind_record = 0
let kind_batch = 1
let kind_checkpoint = 2

let encode_record_body buf r =
  Codec.write_varint buf r.seq;
  (match r.op with
  | Insert { parent_rank; pos; tag } ->
    Codec.write_varint buf 0;
    Codec.write_varint buf parent_rank;
    Codec.write_varint buf pos;
    Codec.write_varint buf (String.length tag);
    Buffer.add_string buf tag
  | Delete { rank } ->
    Codec.write_varint buf 1;
    Codec.write_varint buf rank);
  Codec.write_varint buf r.area;
  Codec.write_varint buf r.changed

let frame_of_payload payload =
  let buf = Buffer.create (String.length payload + 8) in
  Codec.write_varint buf (String.length payload);
  Buffer.add_string buf payload;
  let crc = Crc32.string payload in
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  Buffer.to_bytes buf

let encode_record_frame r =
  let buf = Buffer.create 32 in
  Codec.write_varint buf kind_record;
  encode_record_body buf r;
  frame_of_payload (Buffer.contents buf)

let encode_batch_frame records =
  let buf = Buffer.create 128 in
  Codec.write_varint buf kind_batch;
  Codec.write_varint buf (List.length records);
  List.iter (encode_record_body buf) records;
  frame_of_payload (Buffer.contents buf)

let encode_checkpoint_frame c =
  let buf = Buffer.create 32 in
  Codec.write_varint buf kind_checkpoint;
  Codec.write_varint buf c.gen;
  Codec.write_varint buf c.base_seq;
  Codec.write_varint buf c.xml_crc;
  Codec.write_varint buf c.sidecar_crc;
  frame_of_payload (Buffer.contents buf)

type entry = Records of record list | Ckpt of checkpoint

let decode_payload bytes ~pos ~len =
  let stop = pos + len in
  let cur = ref pos in
  let next () =
    if !cur >= stop then failwith "truncated payload";
    let v, p = Codec.read_varint bytes ~pos:!cur in
    if p > stop then failwith "truncated payload";
    cur := p;
    v
  in
  let record () =
    let seq = next () in
    let op =
      match next () with
      | 0 ->
        let parent_rank = next () in
        let pos = next () in
        let tag_len = next () in
        if tag_len < 0 || !cur + tag_len > stop then failwith "truncated tag";
        let tag = Bytes.sub_string bytes !cur tag_len in
        cur := !cur + tag_len;
        Insert { parent_rank; pos; tag }
      | 1 -> Delete { rank = next () }
      | k -> failwith (Printf.sprintf "unknown operation tag %d" k)
    in
    let area = next () in
    let changed = next () in
    { seq; op; area; changed }
  in
  let entry =
    match next () with
    | 0 -> Records [ record () ]
    | 1 ->
      let count = next () in
      if count < 1 then failwith "empty batch";
      Records (List.init count (fun _ -> record ()))
    | 2 ->
      let gen = next () in
      let base_seq = next () in
      let xml_crc = next () in
      let sidecar_crc = next () in
      Ckpt { gen; base_seq; xml_crc; sidecar_crc }
    | k -> failwith (Printf.sprintf "unknown frame kind %d" k)
  in
  if !cur <> stop then failwith "trailing bytes in payload";
  entry

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)
(* ------------------------------------------------------------------ *)

type scan = {
  records : record list;
  checkpoint : checkpoint option;
  ckpt_expected : bool;
  batches : int;
  valid_bytes : int;
  total_bytes : int;
  version : int;
  damage : string option;
}

let u32_le bytes pos =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get bytes (pos + i))
  done;
  !v

(* One frame at [pos]; [Ok (entry, next)] or [Error why] (torn/corrupt). *)
let frame_at bytes ~pos total =
  match Codec.read_varint bytes ~pos with
  | exception Invalid_argument _ -> Error "torn record length"
  | len, payload_start ->
    if payload_start + len + 4 > total then
      Error (Printf.sprintf "torn record (%d payload bytes promised)" len)
    else begin
      let stored = u32_le bytes (payload_start + len) in
      let actual = Crc32.bytes bytes ~pos:payload_start ~len in
      if stored <> actual then
        Error
          (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)"
             stored actual)
      else
        match decode_payload bytes ~pos:payload_start ~len with
        | e -> Ok (e, payload_start + len + 4)
        | exception (Failure msg | Invalid_argument msg) ->
          Error (Printf.sprintf "undecodable record: %s" msg)
    end

let header_length = String.length header

(* Longest varint a frame length can need: 9 continuation groups. *)
let max_varint_bytes = 10

let decode_stream bytes ~pos =
  let total = Bytes.length bytes in
  let entries = ref [] and cur = ref pos and corrupt = ref None in
  (try
     while !cur < total && !corrupt = None do
       match Codec.read_varint bytes ~pos:!cur with
       | exception Invalid_argument _ ->
         (* A varint cut off by the end of the buffer is an incomplete
            tail (more bytes may complete it); anywhere else it is
            corruption. *)
         if total - !cur < max_varint_bytes then raise Exit
         else begin
           corrupt := Some (Printf.sprintf "bad frame length at byte %d" !cur);
           raise Exit
         end
       | len, payload_start ->
         if payload_start + len + 4 > total then raise Exit (* incomplete *)
         else begin
           let stored = u32_le bytes (payload_start + len) in
           let actual = Crc32.bytes bytes ~pos:payload_start ~len in
           if stored <> actual then
             corrupt :=
               Some
                 (Printf.sprintf
                    "checksum mismatch at byte %d (stored %08x, computed \
                     %08x)" !cur stored actual)
           else
             match decode_payload bytes ~pos:payload_start ~len with
             | e ->
               entries := e :: !entries;
               cur := payload_start + len + 4
             | exception (Failure msg | Invalid_argument msg) ->
               corrupt :=
                 Some
                   (Printf.sprintf "undecodable frame at byte %d: %s" !cur msg)
         end
     done
   with Exit -> ());
  (List.rev !entries, !cur, !corrupt)

let scan ?(vfs = Vfs.real) ?(attempts = 5) path =
  let bytes = Vfs.with_retries ~attempts (fun () -> vfs.Vfs.load path) in
  let total = Bytes.length bytes in
  let hlen = String.length header in
  let head = if total < hlen then "" else Bytes.sub_string bytes 0 hlen in
  if head <> header && head <> header_ckpt then
    if
      total >= hlen
      && (String.sub head 0 4 = "RWAL" || String.sub head 0 4 = "RWAC")
    then
      (* A well-formed journal of another format version: diagnose it by
         name.  [repair]/[open_append] must never truncate or restart it —
         to this build it looks like damage, but to the matching build it
         is a perfectly good journal. *)
      let v = Char.code head.[4] in
      { records = []; checkpoint = None; ckpt_expected = false; batches = 0;
        valid_bytes = 0; total_bytes = total; version = v;
        damage =
          Some
            (Printf.sprintf
               "unsupported journal version %d (this build reads version \
                %d)" v format_version) }
    else
      { records = []; checkpoint = None; ckpt_expected = false; batches = 0;
        valid_bytes = 0; total_bytes = total; version = 0;
        damage = Some "bad journal header" }
  else begin
    let ckpt_expected = head = header_ckpt in
    let pos = ref hlen and valid = ref hlen in
    let records = ref [] and damage = ref None and last_seq = ref 0 in
    let ckpt = ref None and batches = ref 0 and first = ref true in
    while !pos < total && !damage = None do
      (match frame_at bytes ~pos:!pos total with
      | Error why ->
        damage :=
          Some (Printf.sprintf "record %d at byte %d: %s"
                  (!last_seq + 1) !pos why)
      | Ok (entry, next) -> (
        match entry with
        | Ckpt c ->
          if not (!first && ckpt_expected) then
            damage :=
              Some (Printf.sprintf
                      "unexpected checkpoint record at byte %d" !pos)
          else begin
            ckpt := Some c;
            last_seq := c.base_seq;
            pos := next;
            valid := next
          end
        | Records rs ->
          if ckpt_expected && !first then
            damage :=
              Some "journal declares a checkpoint but starts with a record"
          else begin
            let break = ref None in
            List.iter
              (fun r ->
                if !break = None then
                  if r.seq <> !last_seq + 1 then
                    break :=
                      Some (Printf.sprintf
                              "record at byte %d: sequence break (%d after %d)"
                              !pos r.seq !last_seq)
                  else begin
                    records := r :: !records;
                    last_seq := r.seq
                  end)
              rs;
            match !break with
            | Some why -> damage := Some why
            | None ->
              if List.length rs > 1 then incr batches;
              pos := next;
              valid := next
          end));
      first := false
    done;
    { records = List.rev !records; checkpoint = !ckpt; ckpt_expected;
      batches = !batches; valid_bytes = !valid; total_bytes = total;
      version = format_version; damage = !damage }
  end

let repair ?(vfs = Vfs.real) ?(attempts = 5) path =
  let s = scan ~vfs ~attempts path in
  if s.version <> 0 && s.version <> format_version then
    (* A well-formed journal of another format version.  The only "repair"
       this build could perform is destroying every record it cannot read;
       leave the file byte-for-byte alone and let the caller see the
       unsupported-version damage. *)
    s
  else if s.ckpt_expected && s.checkpoint = None then
    (* The checkpoint record itself did not survive: truncating would
       silently discard everything up to the checkpoint's base sequence.
       Leave the file alone; replay/fsck report it unrecoverable.  (The
       rotation protocol fsyncs the new segment before renaming it into
       place, so this state indicates external corruption, not a crash.) *)
    s
  else if s.valid_bytes < String.length header then
    (* Header itself was torn: restart the journal. *)
    (Vfs.with_retries ~attempts (fun () ->
         vfs.Vfs.store path (Bytes.of_string header));
     s)
  else begin
    if s.valid_bytes < s.total_bytes then
      Vfs.with_retries ~attempts (fun () ->
          vfs.Vfs.truncate path s.valid_bytes);
    s
  end

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type writer = {
  path : string;
  vfs : Vfs.t;
  attempts : int;
  mutable last_seq : int;
  mutable gen : int;  (* checkpoint generation of the active segment *)
}

let create ?(vfs = Vfs.real) ?(attempts = 5) path =
  Vfs.with_retries ~attempts (fun () ->
      vfs.Vfs.store path (Bytes.of_string header));
  { path; vfs; attempts; last_seq = 0; gen = 0 }

let open_append ?(vfs = Vfs.real) ?(attempts = 5) ?(repair = false) path =
  if not (vfs.Vfs.exists path) then create ~vfs ~attempts path
  else begin
    let s = scan ~vfs ~attempts path in
    if s.version <> 0 && s.version <> format_version then
      invalid_arg
        (Printf.sprintf
           "Wal.open_append: unsupported journal version %d (this build \
            writes version %d); refusing to append or repair" s.version
           format_version);
    if s.ckpt_expected && s.checkpoint = None then
      invalid_arg
        "Wal.open_append: journal declares a checkpoint that did not \
         survive";
    let s =
      match s.damage with
      | None -> s
      | Some why ->
        if not repair then
          invalid_arg
            (Printf.sprintf "Wal.open_append: damaged journal: %s" why);
        if s.valid_bytes < String.length header then
          Vfs.with_retries ~attempts (fun () ->
              vfs.Vfs.store path (Bytes.of_string header))
        else
          Vfs.with_retries ~attempts (fun () ->
              vfs.Vfs.truncate path s.valid_bytes);
        { s with total_bytes = s.valid_bytes; damage = None }
    in
    let last_seq =
      match List.rev s.records with
      | r :: _ -> r.seq
      | [] -> ( match s.checkpoint with Some c -> c.base_seq | None -> 0)
    in
    let gen = match s.checkpoint with Some c -> c.gen | None -> 0 in
    { path; vfs; attempts; last_seq; gen }
  end

let seq w = w.last_seq
let generation w = w.gen

let append_record w r =
  let frame = encode_record_frame r in
  Vfs.with_retries ~attempts:w.attempts (fun () ->
      w.vfs.Vfs.append w.path frame);
  w.last_seq <- r.seq

let append_batch w records =
  (match records with
  | [] -> invalid_arg "Wal.append_batch: empty batch"
  | _ -> ());
  List.iteri
    (fun i r ->
      if r.seq <> w.last_seq + 1 + i then
        invalid_arg
          (Printf.sprintf
             "Wal.append_batch: non-consecutive sequence %d (expected %d)"
             r.seq (w.last_seq + 1 + i)))
    records;
  let frame =
    match records with
    | [ r ] -> encode_record_frame r
    | rs -> encode_batch_frame rs
  in
  Vfs.with_retries ~attempts:w.attempts (fun () ->
      w.vfs.Vfs.append w.path frame);
  w.last_seq <- (List.nth records (List.length records - 1)).seq

let log_update ?(sync = true) w t op =
  let area, changed = apply t op in
  let r = { seq = w.last_seq + 1; op; area; changed } in
  let frame = encode_record_frame r in
  Vfs.with_retries ~attempts:w.attempts (fun () ->
      if sync then w.vfs.Vfs.append w.path frame
      else w.vfs.Vfs.append_nosync w.path frame);
  w.last_seq <- r.seq;
  r

let flush w =
  Vfs.with_retries ~attempts:w.attempts (fun () -> w.vfs.Vfs.sync w.path)

(* ------------------------------------------------------------------ *)
(* Segment rotation + checkpointing                                    *)
(* ------------------------------------------------------------------ *)

let checkpoint_files path gen =
  (Printf.sprintf "%s.ckpt%d.xml" path gen,
   Printf.sprintf "%s.ckpt%d.ruid" path gen)

let segment_archive path gen = Printf.sprintf "%s.seg%d" path gen

type family_member =
  | Active
  | Checkpoint_xml of int
  | Checkpoint_sidecar of int
  | Segment of int

(* A journal path owns a whole segment family on disk; enumerating it by
   re-deriving the names from generations would miss artifacts of crashed
   rotations, so the family is discovered by scanning the directory for
   the path's suffix grammar instead. *)
let family path =
  let dir = Filename.dirname path and base = Filename.basename path in
  let blen = String.length base in
  let parse f =
    if f = base then Some Active
    else if String.length f > blen && String.sub f 0 blen = base then begin
      let suffix = String.sub f blen (String.length f - blen) in
      match
        Scanf.sscanf suffix ".ckpt%d.%s" (fun g ext ->
            match ext with
            | "xml" -> Some (Checkpoint_xml g)
            | "ruid" -> Some (Checkpoint_sidecar g)
            | _ -> None)
      with
      | some_or_none -> some_or_none
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> (
        match Scanf.sscanf suffix ".seg%d%!" (fun g -> Segment g) with
        | seg -> Some seg
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)
    end
    else None
  in
  let key = function
    | Active -> (-1, 0)
    | Checkpoint_xml g -> (g, 0)
    | Checkpoint_sidecar g -> (g, 1)
    | Segment g -> (g, 2)
  in
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter_map (fun f ->
         Option.map (fun m -> (m, Filename.concat dir f)) (parse f))
  |> List.sort (fun (a, _) (b, _) -> compare (key a) (key b))

(* The deletion rule: a family at generation [gen] is its active segment
   plus, past generation 0, the pair [ckpt<gen>] the segment replays from
   and the archive [seg<gen>] of the segment it replaced.  Anything else
   is a leftover — of a retired generation, a rotation cut short after its
   commit, or an earlier run at the same path.  A removal that fails is
   left for the next trim: recovery never reads a leftover. *)
let trim ?(vfs = Vfs.real) ?(attempts = 5) path ~gen =
  List.iter
    (fun (m, p) ->
      let live =
        match m with
        | Active -> true
        | Checkpoint_xml g | Checkpoint_sidecar g | Segment g ->
          gen > 0 && g = gen
      in
      if not live then
        try Vfs.with_retries ~attempts (fun () -> vfs.Vfs.remove p)
        with Sys_error _ | Vfs.Transient _ -> ())
    (family path)

let should_rotate w ~threshold =
  threshold > 0
  && (try w.vfs.Vfs.size w.path >= threshold with _ -> false)

(* Crash-safe rotation order: (1) checkpoint files for the new generation
   land atomically at paths the active segment does not reference; (2) the
   retiring segment is archived by copy (the active path stays untouched);
   (3) the new segment — header + checkpoint record — is published with one
   atomic rename, the commit point; (4) the family is trimmed to the new
   generation.  A crash before (3) leaves the old segment fully in force;
   after (3) the new one, whose replay reads only its own pair, so a crash
   inside (4) leaves leftovers and nothing else — the next trim takes
   them.  The archive [<wal>.seg<g>] kept by (4) is a copy of the
   generation-(g-1) segment; its header names the generation-(g-1) pair,
   which (4) deletes, so the archive is no recovery artifact: it is the
   bridge a follower still on generation g-1 finishes its segment from. *)
let rotate w ~xml ~sidecar =
  let gen = w.gen + 1 in
  let xml_p, side_p = checkpoint_files w.path gen in
  Ruid.Persist.store_atomic w.vfs ~attempts:w.attempts xml_p xml;
  Ruid.Persist.store_atomic w.vfs ~attempts:w.attempts side_p sidecar;
  let old_bytes =
    Vfs.with_retries ~attempts:w.attempts (fun () -> w.vfs.Vfs.load w.path)
  in
  Vfs.with_retries ~attempts:w.attempts (fun () ->
      w.vfs.Vfs.store (segment_archive w.path gen) old_bytes);
  let c =
    {
      gen;
      base_seq = w.last_seq;
      xml_crc = Crc32.bytes xml ~pos:0 ~len:(Bytes.length xml);
      sidecar_crc = Crc32.bytes sidecar ~pos:0 ~len:(Bytes.length sidecar);
    }
  in
  let seg = Buffer.create 64 in
  Buffer.add_string seg header_ckpt;
  Buffer.add_bytes seg (encode_checkpoint_frame c);
  Ruid.Persist.store_atomic w.vfs ~attempts:w.attempts w.path
    (Buffer.to_bytes seg);
  w.gen <- gen;
  trim ~vfs:w.vfs ~attempts:w.attempts w.path ~gen;
  gen

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

type recovery = {
  doc : Rxml.Dom.t;
  r2 : Ruid.Ruid2.t;
  replayed : record list;
  journal : scan;
}

let replay_records t records =
  List.iter
    (fun r ->
      let area, changed = apply t r.op in
      if area <> r.area || changed <> r.changed then
        replay_error
          "record #%d journaled (area %d, %d rewritten) but replay gave \
           (area %d, %d rewritten): journal does not match this snapshot"
          r.seq r.area r.changed area changed)
    records

let replay ?(vfs = Vfs.real) ?(attempts = 5) ?(check = true) ~xml ~sidecar
    ~wal () =
  let journal =
    if vfs.Vfs.exists wal then scan ~vfs ~attempts wal
    else
      { records = []; checkpoint = None; ckpt_expected = false; batches = 0;
        valid_bytes = 0; total_bytes = 0; version = format_version;
        damage = None }
  in
  if journal.version <> 0 && journal.version <> format_version then
    (* Recovering "around" an unreadable older journal would silently drop
       every record it holds; refuse instead. *)
    replay_error
      "unsupported journal version %d (this build replays version %d)"
      journal.version format_version;
  let doc, r2 =
    match journal.checkpoint with
    | Some c ->
      (* Replay starts from the checkpointed snapshot, not the base one:
         recovery cost is bounded by the active segment.  The checkpoint
         record vouches for the exact bytes it was cut against. *)
      let xml_p, side_p = checkpoint_files wal c.gen in
      let xb = Vfs.with_retries ~attempts (fun () -> vfs.Vfs.load xml_p) in
      let sb = Vfs.with_retries ~attempts (fun () -> vfs.Vfs.load side_p) in
      if Crc32.bytes xb ~pos:0 ~len:(Bytes.length xb) <> c.xml_crc then
        replay_error "checkpoint %d: xml bytes fail the checkpoint checksum"
          c.gen;
      if Crc32.bytes sb ~pos:0 ~len:(Bytes.length sb) <> c.sidecar_crc then
        replay_error
          "checkpoint %d: sidecar bytes fail the checkpoint checksum" c.gen;
      Ruid.Persist.of_bytes ~xml:xb ~sidecar:sb
    | None ->
      if journal.ckpt_expected then
        replay_error
          "journal declares a checkpoint that did not survive: refusing to \
           recover from the base snapshot";
      Ruid.Persist.load ~vfs ~attempts ~xml ~sidecar ()
  in
  replay_records r2 journal.records;
  if check then R2.check r2;
  { doc; r2; replayed = journal.records; journal }

(* ------------------------------------------------------------------ *)
(* fsck                                                                *)
(* ------------------------------------------------------------------ *)

type status = Clean | Recoverable of string | Unrecoverable of string

let pp_status ppf = function
  | Clean -> Format.fprintf ppf "clean"
  | Recoverable why -> Format.fprintf ppf "recoverable: %s" why
  | Unrecoverable why -> Format.fprintf ppf "unrecoverable: %s" why

let exit_code = function Clean -> 0 | Recoverable _ -> 1 | Unrecoverable _ -> 2

let fsck ?(vfs = Vfs.real) ?(attempts = 5) ~xml ~sidecar ?wal () =
  (* [replay] treats a missing journal file as an empty journal, so a bare
     snapshot checks the same way as snapshot + journal. *)
  let wal = Option.value wal ~default:(sidecar ^ ".wal-absent") in
  match replay ~vfs ~attempts ~check:true ~xml ~sidecar ~wal () with
  | exception Invalid_argument msg -> Unrecoverable msg
  | exception Failure msg -> Unrecoverable msg
  | exception Replay_error msg -> Unrecoverable msg
  | exception Rxml.Parser.Parse_error e ->
    Unrecoverable (Format.asprintf "%a" Rxml.Parser.pp_error e)
  | exception Sys_error msg -> Unrecoverable msg
  | { journal; _ } ->
    (match journal.damage with
    | None -> Clean
    | Some why -> Recoverable why)
