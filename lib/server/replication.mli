(** Shared substrate of the WAL-shipping replication tier.

    Replication is pure log shipping: the paper's area-confined-update
    property (Section 3.2) makes {!Rstorage.Wal.apply} deterministic, so a
    follower that replays the same journal bytes reproduces the primary's
    numbering byte for byte.  The primary therefore serves nothing but its
    own on-disk artifacts — base snapshot pair, the live generation's
    checkpoint pair, the archive of the segment it replaced, and the live
    journal — over the [REPL *] protocol verbs, and a follower mirrors
    them verbatim into its own data directory (which consequently passes
    [ruidtool fsck] like a primary's).  A rotation deletes the previous
    generation's files, so every chunk reply names the generation its
    bytes belong to, atomically: a follower that reads a newer one than it
    asked for knows the files it wanted may be gone.

    {b Fencing rule.}  Every node serves under a monotonic {e epoch}
    (persisted in [<data-dir>/EPOCH]).  Each REPL reply carries the
    serving node's epoch; a follower records the highest epoch it has ever
    seen and refuses — never merges — bytes from any lower epoch.
    Promotion bumps the epoch, so a deposed primary that comes back is
    permanently behind the fence. *)

val max_chunk : int
(** Most file bytes shipped per REPL FILE / REPL WAIT reply (256 KiB). *)

val max_wait_ms : int
(** Server-side cap on a REPL WAIT long-poll (30 s). *)

(** {1 Fencing epochs} *)

val epoch_path : string -> string
(** [<data-dir>/EPOCH]. *)

val load_epoch : string -> int
(** The persisted epoch, 0 when the file does not exist.
    @raise Invalid_argument on an unparsable epoch file. *)

val store_epoch : string -> int -> unit
(** Persist atomically (temp + fsync + rename): a torn epoch file could
    otherwise lower a follower's fence across a restart. *)

(** {1 Binary reply bodies}

    REPL FILE / REPL WAIT reply bodies are a [k=v] header line, one
    newline, then raw bytes; the protocol frame length keeps the whole
    self-delimiting. *)

type chunk = {
  epoch : int;  (** fencing epoch the serving node is at *)
  gen : int;  (** live generation of the document's active journal *)
  size : int;  (** current total size of the addressed file *)
  data : string;  (** the raw bytes; [""] when nothing (yet) to ship *)
}

val encode_chunk : chunk -> string
val decode_chunk : string -> (chunk, string) result

(** {1 REPL STATE bodies} *)

type doc_state = {
  name : string;
  gen : int;  (** active journal generation *)
  seq : int;  (** durable sequence (last fsynced record) *)
  size : int;  (** active journal size in bytes *)
}

type state = { s_epoch : int; s_version : int; s_docs : doc_state list }

val encode_state : state -> string
val decode_state : string -> (state, string) result

(** {1 Serving file bytes} *)

val file_size : string -> int
(** Size by [stat], 0 when absent. *)

val read_chunk : string -> offset:int -> limit:int -> string * int
(** [(data, size)]: up to [min limit max_chunk] bytes of the file from
    [offset], and the file's current total size.  [("", 0)] when the file
    does not exist. *)

val resolve_path :
  xml:string -> sidecar:string -> wal:string -> Protocol.repl_file -> string
(** The on-disk path a REPL FILE request addresses, from the document's
    base file triple (checkpoint and archive names derive from [wal]). *)
