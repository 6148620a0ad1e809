(** Read replica: a follower that mirrors a primary's on-disk artifacts
    over the [REPL *] verbs and serves snapshot-isolated reads from the
    replayed numbering.

    The replica's data directory is a byte-for-byte mirror of the
    primary's — base pair, the live generation's checkpoint pair and
    archive, and an active journal holding only complete checksum-valid
    frames — so [ruidtool fsck] passes on it at all times and a restart
    recovers through the ordinary {!Rstorage.Wal.replay} path, resuming
    the stream from the durable byte offset.

    {b Rotations.}  Upstream keeps one generation per document (the
    journal family is bounded, {!Rstorage.Wal.trim}), so a follower that
    fell one generation behind finishes its segment from the archive
    [seg<g>] and takes the new pair and active prefix; one further
    behind reinstalls the document from the live generation, as
    bootstrap does, and publishes the recovered numbering without a
    copy.  A fetched chunk that names a newer generation restarts the
    step on the same connection.  Each install trims the mirror by the
    same rule, and the [REPL *] verbs it serves to chained followers see
    every install whole.

    {b Staleness contract.}  Reads are served from the latest locally
    {e published} snapshot, which may trail the primary; its [v=] stamp
    says by exactly how many updates.  A caught-up, quiesced replica's
    replies are byte-identical to the primary's (same version arithmetic,
    same {!Service.eval_read} code path).

    {b Membership.}  A replica mirrors the document set its upstream
    listed at bootstrap and does not follow membership changes: a
    document dropped upstream stays served from its last mirrored copy,
    and one added upstream is not mirrored.

    {b Fencing.}  The highest epoch ever seen is persisted in
    [<data-dir>/EPOCH]; bytes stamped with a lower epoch are refused and
    counted, never merged.  {!Fenced} at {!start} is fatal by design: the
    configured upstream is provably deposed.

    {b Failover.}  [PROMOTE] stops the puller, bumps and persists the
    epoch, reopens each mirrored journal for append, and begins accepting
    [UPDATE]s.  Other replicas may follow a replica (the [REPL *] verbs
    are served from the mirror), so a chain below a promoted node keeps
    streaming seamlessly. *)

exception Fenced of { seen : int; got : int }
(** The upstream served epoch [got], below the highest epoch [seen] this
    data directory has ever followed. *)

type config = {
  socket_path : string;  (** Unix socket this replica serves on *)
  data_dir : string;  (** local mirror directory *)
  primary : string;  (** upstream's Unix socket path *)
  workers : int;  (** read worker threads *)
  max_queue : int;
      (** admission bound; 0 means [4 * workers]
          ({!Service.resolved_max_queue}) *)
  poll_ms : int;  (** REPL WAIT long-poll timeout per round *)
  plan_cache : int;  (** shared plan-cache entries *)
}

val default_config :
  socket_path:string -> data_dir:string -> primary:string -> unit -> config
(** workers 2, max_queue 0, poll_ms 500, plan_cache 256. *)

val validate_config : config -> (unit, string) result
(** workers >= 1, max_queue >= 0, poll_ms >= 1, plan_cache >= 0, a
    non-empty primary, and a socket path {!Listener.check_socket_path}
    accepts. *)

type t

val start : ?chaos:Rstorage.Fault.plan -> config -> t
(** Bootstrap the mirror (resuming from intact local files when present),
    publish the first local snapshot, begin pulling and serving.
    [?chaos] arms the fault-injection hook: each received stream chunk may
    be torn at a random byte per the plan's short-write probability, which
    the replica must survive by reconnecting and resuming.
    @raise Fenced when the configured upstream is behind this data
    directory's persisted fence.
    @raise Invalid_argument on an invalid config. *)

val stop : t -> unit
(** Stop serving ({!Listener.stop}): join every session, then stop
    pulling and drain the read pool; remove the socket file.
    Idempotent. *)

val wait : t -> unit
(** Block until {!stop} (from any thread, or a [SHUTDOWN] request)
    completes. *)

val metrics : t -> Metrics.t
val snapshot : t -> Snapshot.t
val config : t -> config

val epoch : t -> int
(** The highest fencing epoch seen (== served, once promoted). *)

val role : t -> [ `Following | `Promoted ]

val doc_files : t -> string -> (string * string * string) option
(** [(xml, sidecar, wal)] paths of a mirrored document — what to [fsck]
    after shutdown. *)
