(** Persistence of numbered documents.

    Identifiers are only useful as external keys if they survive process
    restarts without a renumbering (which would defeat the stability the
    scheme buys).  This module writes a numbered document as the XML text
    plus a binary sidecar, and restores the exact numbering on load.

    The sidecar stores no identifier.  Each area's locals are its k-ary
    UID enumeration under its K fan-out, and each area root's global is
    a kappa-ary frame index (Sections 2.1-2.2, Definition 3), so the
    frame alone determines them: the cut, each area's slot among its
    frame parent's kappa children, and each area's fan-out.  Restore
    ({!Ruid2.restore}) runs the kernel {!Ruid2.number} runs over those.

    Sidecar format v4 (all integers LEB128 varints unless noted):
    {v magic "RUID2\x04"
       | 2 framed sections, in order header, frame:
           varint payload-length | payload | CRC-32 of payload (4 bytes LE)
       header payload: root-kind (1 = document node) | kappa | #nodes
                       | shape digest (4 bytes LE)
       frame  payload: fan-out of area 1
                       | per further area, in document order of its root:
                         preorder distance from the previous area root
                         | frame slot, (global - 2) mod kappa | K fan-out v}
    The shape digest is the CRC-32 of the tree's preorder subtree sizes,
    each as a varint; the writer reads them off the numbering's order
    index, with no walk of the tree.  A few bytes per area: on XMark
    and DBLP documents at area size 64 the sidecar is 0.014-0.025 of the
    XML.

    Every rejection is an [Invalid_argument] naming the section (and byte
    offset) or the area at fault: a failed checksum, a node count or
    shape digest that does not match the tree, an area position outside
    it, and whatever {!Ruid2.restore} refuses (a slot not below kappa,
    frame siblings whose slots do not ascend, a fan-out below its area's
    largest degree, an index overflow).

    Older sidecars still load.  Format v3 (magic ["RUID2\x03"]) frames
    three sections — header (root kind, kappa), ktable (#rows, then
    global, root_local, fan-out per row) and ids (#nodes, then root flag,
    global, local per node, in document order); v2 (["RUID2\x02"]) is the
    same payloads concatenated without framing or checksums.  Their
    frame is read off the stored identifiers and K — the cut from the
    root flags, each slot from its root's global, each fan-out from K —
    and restored as v4's is; the derived identifiers and K's
    [root_local]s must then equal the stored ones.

    {!save} is atomic: both files are written to a temporary name in the
    same directory, fsynced, then renamed over the destination, so a crash
    mid-save leaves the previous snapshot intact. *)

val save :
  ?vfs:Vfs.t -> ?attempts:int -> Ruid2.t -> xml:string -> sidecar:string -> unit
(** Write the document (compact XML) and its v4 numbering sidecar
    atomically (temp file + fsync + rename, per file).  I/O goes through
    [vfs] (default {!Vfs.real}); {!Vfs.Transient} failures are retried up
    to [attempts] times (default 5). *)

val load :
  ?vfs:Vfs.t -> ?attempts:int -> xml:string -> sidecar:string ->
  unit -> Rxml.Dom.t * Ruid2.t
(** Parse, restore and verify (via {!Ruid2.restore}); returns the document
    node and the numbering over its root element.  Accepts v2, v3 and
    v4 sidecars.
    @raise Invalid_argument if the sidecar is malformed, fails a checksum,
    or does not match the document — the message names the section and
    byte offset of the failure. *)

val sidecar_to_bytes : Ruid2.t -> bytes
(** Serialize in the v4 format. *)

val sidecar_to_bytes_v3 : Ruid2.t -> bytes
val sidecar_to_bytes_v2 : Ruid2.t -> bytes
(** Legacy encoders, kept so that loading the v3 and v2 sidecars already
    on disk stays testable. *)

val sidecar_of_bytes : Rxml.Dom.t -> bytes -> Ruid2.t
(** In-memory variant (the file functions are thin wrappers); the [Dom.t]
    argument is the numbered root.  Accepts v2, v3 and v4. *)

val version_of_bytes : bytes -> int
(** 2, 3 or 4 by magic. @raise Invalid_argument on an unknown magic. *)

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
