(** Crash-safe journaling of structural updates (redo log + recovery).

    The paper's robustness claim (Section 3.2, Lemmas 1-3) is that an
    insertion or deletion renumbers a single UID-local area.  That claim is
    only worth having if the numbering survives a crash: this module pairs a
    {!Ruid.Persist} snapshot with an append-only journal of the structural
    operations applied since, so a process can die at any byte and recovery
    reproduces the exact numbering — including the untouched areas, byte for
    byte.

    Journal format v2: a 5-byte header — ["RWAL\x02"] for a base segment,
    ["RWAC\x02"] for a rotated segment whose {e first} frame must be a
    checkpoint.  The fifth header byte is the format version: a journal
    carrying an ["RWAL"]/["RWAC"] magic with any other version byte (e.g. a
    v1 journal from an older build) is reported as {e unsupported} — never
    treated as a torn header — and {!repair}/{!open_append} refuse to touch
    it, so an older journal is diagnosed, not silently emptied.  The header
    is followed by framed entries
    {v varint payload-length | payload | CRC-32 of payload (4 bytes LE) v}
    Every payload begins with a kind tag:
    - [0] one record: sequence number, the logical operation (insert of a
      fresh leaf / cascading delete, addressed by preorder rank as in
      [Rworkload.Updates]), and the {e renumber record} it triggered — the
      global index of the one area re-enumerated and how many pre-existing
      identifiers were rewritten;
    - [1] a commit batch: a count followed by that many record bodies with
      consecutive sequence numbers.  One checksum covers the whole batch,
      so a torn batch drops {e atomically} — recovery never surfaces a
      prefix of a group commit;
    - [2] a checkpoint: generation number, the sequence number it was cut
      after, and CRC-32s of the checkpointed XML and sidecar bytes.

    Recovery replays the longest checksum-valid prefix over the snapshot
    the segment names (the base {!Ruid.Persist} snapshot, or the
    checkpoint files for a rotated segment), verifies each renumber record
    against what the replay actually did, truncates a torn tail, and
    finishes with the deep invariant checker {!Ruid.Ruid2.check}.  A
    ["RWAC"] segment whose checkpoint frame did not survive is
    {e unrecoverable} — falling back to the base snapshot would silently
    lose every record up to the checkpoint.

    All I/O goes through {!Ruid.Vfs.t} (default {!Ruid.Vfs.real});
    {!Ruid.Vfs.Transient} errors are retried with bounded backoff, which is
    how the deterministic fault plans of {!Fault} are exercised. *)

type op =
  | Insert of { parent_rank : int; pos : int; tag : string }
      (** insert a fresh leaf element [<tag>] as the [pos]-th child of the
          node at preorder rank [parent_rank] *)
  | Delete of { rank : int }  (** cascading delete, never rank 0 *)

type record = {
  seq : int;  (** 1-based, consecutive *)
  op : op;
  area : int;  (** global index of the area the operation re-enumerated *)
  changed : int;  (** pre-existing identifiers rewritten by the operation *)
}

type checkpoint = {
  gen : int;  (** checkpoint generation, 1-based *)
  base_seq : int;  (** last sequence number folded into the checkpoint *)
  xml_crc : int;  (** CRC-32 of the checkpointed XML bytes *)
  sidecar_crc : int;  (** CRC-32 of the checkpointed sidecar bytes *)
}

val pp_op : Format.formatter -> op -> unit
val pp_record : Format.formatter -> record -> unit
val pp_checkpoint : Format.formatter -> checkpoint -> unit

exception Replay_error of string
(** The journal does not describe the snapshot it is replayed over: a rank
    out of range, an operation that cannot apply, a renumber record
    disagreeing with what the replay did, or checkpoint bytes failing the
    checksums the checkpoint record vouches for.  Unrecoverable. *)

(** {1 Applying logical operations} *)

val apply : Ruid.Ruid2.t -> op -> int * int
(** Resolve the operation positionally against the numbered tree and apply
    it; returns [(area, changed)] — the renumber record.
    @raise Replay_error if the operation does not apply. *)

(** {1 Writing} *)

type writer

val create :
  ?vfs:Ruid.Vfs.t -> ?attempts:int -> string -> writer
(** Start a fresh journal at the path (truncating any previous file).
    Checkpoint pairs and archives an earlier journal left at the path stay
    until a {!trim}. *)

val open_append :
  ?vfs:Ruid.Vfs.t -> ?attempts:int -> ?repair:bool -> string -> writer
(** Continue an existing journal (creating it if absent), resuming the
    sequence numbering after its last valid record (or the checkpoint's
    [base_seq] for a freshly rotated segment).  With [repair] (default
    [false]) a torn tail is truncated first; without it a damaged journal
    is refused.
    @raise Invalid_argument on a damaged journal when [repair] is false,
    on a checkpoint segment whose checkpoint frame did not survive, or on
    a journal of an unsupported format version (repair cannot help with
    either). *)

val log_update : ?sync:bool -> writer -> Ruid.Ruid2.t -> op -> record
(** Apply the operation to the live numbering and append its record.  With
    [sync] (the default) the append is fsynced before returning — the
    journal is a redo log: a record is present iff the operation committed.
    [~sync:false] leaves the frame in the page cache for a later {!flush}
    (or a batch-closing synced append); a crash in between can lose or tear
    it, which recovery handles as a torn tail. *)

val flush : writer -> unit
(** fsync the journal file: make every {!log_update} [~sync:false] record
    written so far durable. *)

val append_record : writer -> record -> unit
(** Append a pre-built record without touching any numbering (tests,
    replication). *)

val append_batch : writer -> record list -> unit
(** Append a commit batch as one frame with one fsync.  Sequence numbers
    must be consecutive starting at [seq w + 1].  A single-record batch is
    written as an ordinary record frame (a batch frame would claim a
    coalescing that never happened).
    @raise Invalid_argument on an empty or non-consecutive batch. *)

val seq : writer -> int
(** Sequence number of the last record written (0 for a fresh journal). *)

(** {1 Segment rotation} *)

val generation : writer -> int
(** Checkpoint generation of the active segment (0 until first rotation). *)

val should_rotate : writer -> threshold:int -> bool
(** Whether the active segment has reached [threshold] bytes.  A
    [threshold] of 0 disables rotation. *)

val rotate : writer -> xml:bytes -> sidecar:bytes -> int
(** Cut a checkpoint and start a fresh segment; returns the new generation
    [g].  [xml]/[sidecar] must serialize the exact state after the last
    appended record ({!seq}).  Ordering is crash-safe: the generation's
    checkpoint files are published atomically first, the retiring segment
    is archived by copy (to [path ^ ".seg<g>"]), and only then is the new
    segment — header plus checkpoint frame — renamed over the journal
    path, which is the commit point.  A crash anywhere before that rename
    leaves the old segment fully in force.  After the commit the family is
    {!trim}med to [g]: the active segment, the pair [ckpt<g>] and the
    archive [seg<g>] stay, every older pair and archive goes, so a
    journal's disk use is bounded by one checkpoint pair and two segments
    however often it rotates.  A crash inside the trim leaves only
    leftovers, which the next rotation removes. *)

val checkpoint_files : string -> int -> string * string
(** [(xml, sidecar)] checkpoint paths for a journal path and generation:
    [path ^ ".ckpt<gen>.xml"] and [path ^ ".ckpt<gen>.ruid"]. *)

val segment_archive : string -> int -> string
(** Archive path of the segment retired when generation [gen] was cut:
    [path ^ ".seg<gen>"], a byte-for-byte copy of the generation-[gen-1]
    segment.  Its header names the generation-[gen-1] pair, which the
    rotation deletes, so the archive is not replayable on its own: it is
    the bridge a replication follower still on generation [gen-1] finishes
    its segment from (it holds that pair itself). *)

type family_member =
  | Active  (** the live journal at the path itself *)
  | Checkpoint_xml of int
  | Checkpoint_sidecar of int
  | Segment of int  (** an archived segment *)

val family : string -> (family_member * string) list
(** Every on-disk artifact of the journal's segment family, discovered by
    scanning the path's directory (not by re-deriving names from the live
    generation, which would miss leftovers of a crashed rotation): the
    active journal if present, then each generation's checkpoint pair and
    archived segment in generation order.  After a rotation to [g] that is
    the active journal, [ckpt<g>] and [seg<g>], plus whatever leftovers a
    crash kept from {!trim}.  Used by [DROPDOC] to delete a document
    without guessing at its rotation history, by {!trim}, and by tests to
    assert the family a run produced. *)

val trim : ?vfs:Ruid.Vfs.t -> ?attempts:int -> string -> gen:int -> unit
(** The deletion rule for a family at generation [gen]: remove every
    member of {!family} except the active journal and, when [gen > 0], the
    pair [ckpt<gen>] and the archive [seg<gen>].  Removals that fail are
    skipped (the next trim retries them); recovery never reads what is
    removed.  It reads the path's directory once.  {!rotate} applies it
    after its commit; a server applies it at generation 0 to each journal
    it starts afresh, and a replication follower to its mirror. *)

(** {1 Reading and recovery} *)

type scan = {
  records : record list;  (** the longest valid prefix *)
  checkpoint : checkpoint option;
      (** the checkpoint frame of a rotated segment, if it survived *)
  ckpt_expected : bool;
      (** the header declares a checkpoint-leading segment *)
  batches : int;  (** frames that coalesced 2 or more records *)
  valid_bytes : int;  (** file offset where the valid prefix ends *)
  total_bytes : int;
  version : int;
      (** journal format version found: 2 for this build's format, the
          header's version byte for a recognized-but-unsupported version
          (e.g. 1), 0 when there is no ["RWAL"]/["RWAC"] magic at all *)
  damage : string option;
      (** why scanning stopped before [total_bytes], if it did *)
}

val scan : ?vfs:Ruid.Vfs.t -> ?attempts:int -> string -> scan
(** Decode the journal, stopping cleanly at the first torn or corrupt
    entry (truncated frame, checksum mismatch, undecodable payload,
    sequence break, or a checkpoint frame anywhere but first in a
    checkpoint segment). *)

(** {1 Incremental stream decoding (replication)} *)

type entry = Records of record list | Ckpt of checkpoint
(** One decoded journal frame: a record or batch frame (a batch surfaces
    as the list it coalesced), or a rotated segment's checkpoint frame. *)

val header_length : int
(** Bytes of the segment header ([RWAL\x02]/[RWAC\x02]) preceding the
    first frame. *)

val decode_stream : bytes -> pos:int -> entry list * int * string option
(** Decode consecutive complete frames from a raw buffer of journal bytes
    (no header) starting at [pos] — the incremental consumer for a shipped
    WAL stream.  Returns [(entries, consumed, corrupt)]: every
    checksum-valid complete frame in order, the offset just past the last
    one, and [Some why] when a {e complete but invalid} frame (checksum
    mismatch, undecodable payload) stopped decoding — a trailing torn
    frame is not corruption, merely bytes still in flight, and simply
    stops the decode at [consumed]. *)

val repair : ?vfs:Ruid.Vfs.t -> ?attempts:int -> string -> scan
(** {!scan}, then truncate the file to the valid prefix (rewriting the
    header when the header itself was damaged).  Returns the scan that
    describes what survived.  Two states are left byte-for-byte untouched:
    a checkpoint segment whose checkpoint frame is gone (truncating it
    would discard everything up to the checkpoint's base sequence), and a
    journal of an unsupported format version (well-formed for its own
    build; "repairing" it could only destroy it). *)

type recovery = {
  doc : Rxml.Dom.t;
  r2 : Ruid.Ruid2.t;
  replayed : record list;
  journal : scan;
}

val replay :
  ?vfs:Ruid.Vfs.t -> ?attempts:int -> ?check:bool ->
  xml:string -> sidecar:string -> wal:string -> unit -> recovery
(** Recovery: load the snapshot the journal names — the checkpoint files
    (verified against the checkpoint record's checksums) when the segment
    carries a checkpoint, the base {!Ruid.Persist} snapshot otherwise —
    replay the journal's valid prefix over it (verifying every renumber
    record), and run {!Ruid.Ruid2.check} as postcondition (disable with
    [check:false]).  A missing journal file recovers to the bare snapshot.
    The journal file is not modified; pair with {!repair} to also drop the
    torn tail.
    @raise Replay_error if the journal does not match the snapshot, the
    checkpoint bytes fail their checksums, a declared checkpoint did not
    survive, or the journal is of an unsupported format version (its
    records cannot be read, so recovering {e around} them would silently
    drop them).
    @raise Invalid_argument if the snapshot itself is corrupt. *)

(** {1 Integrity checking (fsck)} *)

type status =
  | Clean  (** snapshot and journal fully intact; exit code 0 *)
  | Recoverable of string
      (** torn journal tail; the valid prefix replays cleanly; exit 1 *)
  | Unrecoverable of string
      (** corrupt snapshot, or a journal that does not describe it; exit 2 *)

val pp_status : Format.formatter -> status -> unit

val fsck :
  ?vfs:Ruid.Vfs.t -> ?attempts:int ->
  xml:string -> sidecar:string -> ?wal:string -> unit -> status
(** Verify the snapshot (checksums + restore + deep invariants) and, when a
    journal is given and exists, its replay.  Read-only. *)

val exit_code : status -> int
(** 0 / 1 / 2 as above — the contract of [ruidtool fsck]. *)
