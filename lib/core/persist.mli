(** Persistence of numbered documents.

    Identifiers are only useful as external keys if they survive process
    restarts without a renumbering (which would defeat the stability the
    scheme buys).  This module writes a numbered document as the XML text
    plus a compact binary sidecar — kappa, the K table, and the varint
    identifier stream in document order — and restores the exact numbering
    on load.

    Sidecar format v3 (all integers LEB128 varints unless noted):
    {v magic "RUID2\x03"
       | 3 framed sections, in order header, ktable, ids:
           varint payload-length | payload | CRC-32 of payload (4 bytes LE)
       header  payload: root-kind (1 = document node) | kappa
       ktable  payload: #K rows | rows (global, root_local, fanout)
       ids     payload: #nodes  | per node: root flag + global + local v}

    The per-section checksums detect any single-bit corruption and locate
    it; {!sidecar_of_bytes} names the failing section and byte offset in
    every rejection.  The v2 format (magic ["RUID2\x02"], same payloads
    concatenated without framing or checksums) is still loaded.

    {!save} is atomic: both files are written to a temporary name in the
    same directory, fsynced, then renamed over the destination, so a crash
    mid-save leaves the previous snapshot intact. *)

val save :
  ?vfs:Vfs.t -> ?attempts:int -> Ruid2.t -> xml:string -> sidecar:string -> unit
(** Write the document (compact XML) and its v3 numbering sidecar
    atomically (temp file + fsync + rename, per file).  I/O goes through
    [vfs] (default {!Vfs.real}); {!Vfs.Transient} failures are retried up
    to [attempts] times (default 5). *)

val load :
  ?vfs:Vfs.t -> ?attempts:int -> xml:string -> sidecar:string ->
  unit -> Rxml.Dom.t * Ruid2.t
(** Parse, restore and verify (via {!Ruid2.restore}); returns the document
    node and the numbering over its root element.  Accepts v2 and v3
    sidecars.
    @raise Invalid_argument if the sidecar is malformed, fails a checksum,
    or does not match the document — the message names the section and
    byte offset of the failure. *)

val sidecar_to_bytes : Ruid2.t -> bytes
(** Serialize in the v3 format. *)

val sidecar_to_bytes_v2 : Ruid2.t -> bytes
(** Legacy v2 encoder, kept so compatibility of {!sidecar_of_bytes} with
    pre-checksum sidecars stays testable. *)

val sidecar_of_bytes : Rxml.Dom.t -> bytes -> Ruid2.t
(** In-memory variant (the file functions are thin wrappers); the [Dom.t]
    argument is the numbered root element.  Accepts v2 and v3. *)

val version_of_bytes : bytes -> int
(** 2 or 3 by magic. @raise Invalid_argument on an unknown magic. *)

val xml_to_bytes : Ruid2.t -> bytes
(** The XML text {!save} would write for this numbering (the serialized
    numbered root). *)

val of_bytes : xml:bytes -> sidecar:bytes -> Rxml.Dom.t * Ruid2.t
(** The {!load} path without the file system: parse the XML bytes and
    restore the numbering from the sidecar bytes.  WAL checkpoint recovery
    uses this after verifying both byte strings against the checksums in
    the checkpoint record.
    @raise Invalid_argument as {!load}. *)

val store_atomic : Vfs.t -> attempts:int -> string -> bytes -> unit
(** Atomic single-file publication: write [path ^ ".tmp"], fsync, rename
    over [path]; a failed rename removes the temp file (a {!Vfs.Crash}
    leaves it).  Exposed for the WAL's checkpoint files, which need the
    same crash discipline as {!save}. *)
