(** The concurrent document service: the one node type.

    One long-running process composes the repo's three pillars: numbering
    (every hosted document's {!Ruid.Ruid2} numbering), durability (every
    structural update committed through {!Rstorage.Wal} before it is
    visible), and query evaluation (the numbering-driven engine) — behind
    a Unix-socket protocol ({!Protocol}) served on a {!Listener} by a
    worker {!Pool}.

    A node either numbers the documents it is given (a primary) or, with
    an [upstream], follows another node (a follower, see {e Following}
    below).  The paper's renumbering (§3.2) is deterministic and stays
    inside one area, so a follower that replays the primary's journal
    holds bit-identical identifiers: the two are the same node, fed from
    a stream instead of by clients.

    Concurrency contract:
    - {e Reads are snapshot-isolated and never block.}  Workers grab the
      current {!Snapshot} with one atomic load; an update publishes a new
      snapshot with one atomic store.  A reader therefore sees either the
      numbering before an update or after it — never a half-renumbered
      area.
    - {e Reads scale with cores when asked to.}  With [domains > 0],
      QUERY/COUNT/CHECK run on a fixed {!Pool} of OCaml 5 domains
      instead of systhreads, evaluating in true parallel
      against the immutable snapshot; with [cache_mb > 0] their answers
      are memoized in a snapshot-versioned sharded LRU ({!Query_cache})
      whose keys embed the snapshot version — a cached answer can never
      be stale, and publication needs no invalidation protocol.
    - {e Writes are partitioned into independent commit pipelines.}
      Documents hash by name into [commit_groups] groups (the same stable
      placement hash the collection router uses); each group owns a write
      mutex, a commit queue, and a dedicated pipeline domain, so updates
      to documents of different groups apply, fsync, and publish
      concurrently — the paper's area-confined-update independence turned
      into multicore write throughput.  Within a group, writes are
      serialized and committed in batches: each update is applied to the
      document's writer copy, sequenced, parked in the group's queue, and the
      pipeline drains up to [commit_max_batch] records into {e one} WAL
      batch frame per touched document, then publishes {e one} snapshot
      for the whole batch — derived incrementally from the previous
      snapshot (clone + replay of just the touched areas) rather than a
      full serialize/reparse, installed by compare-and-set so concurrent
      groups' publications interleave safely.  Records that arrive during
      an in-flight fsync coalesce into the next batch, so concurrent
      writers of one group share fsyncs (group commit) while a lone
      writer commits immediately with unbatched latency.  An UPDATE is
      acknowledged only after its batch's fsync and publication, so the
      on-disk journal is always a redo log of everything any client was
      ever told ([OK seq=...]).  Per-document ordering, quarantine after
      a failed commit, and WAL batch atomicity are all per group — a
      fault in one group never pauses another.  With
      [wal_segment_bytes > 0] a document's journal is rotated once it
      outgrows the threshold: a checkpoint of the durable state is cut
      and replay restarts from it.
    - {e A document is resident once until it is written.}  A numbering
      built at startup, by ADDDOC/ADDCHUNK or recovered by ADOPT is
      published in place ({!Snapshot.host}); the writer copy is a
      {!Ruid.Ruid2.clone} of the published numbering, made by the
      document's first UPDATE under the group's write mutex.  No code
      path writes a published numbering.  An update that fails part-way
      (an identifier overflow after the tree changed) is rejected with
      the mutex released, and its half-applied writer copy is dropped —
      or the document quarantined when it still has records pending.
    - {e Overload is explicit.}  The admission queue is bounded; beyond it
      clients get [BUSY] immediately, and a per-request deadline turns
      stale queued work into [BUSY] instead of late replies.

    Graceful shutdown ({!Listener.stop}) stops the accept loop, unblocks
    and joins every session, then drains admitted work and stops the
    commit pipelines, and leaves [<doc>.xml] + [<doc>.ruid] + [<doc>.wal]
    in the data directory such that {!Rstorage.Wal.fsck} rates them
    recoverable (0 or 1) — the crash story and the shutdown story are the
    same story.

    {b Following.}  A node with an [upstream] mirrors that node's on-disk
    artifacts over the [REPL *] verbs — base pair, the live generation's
    checkpoint pair and archive, and an active journal holding only
    complete checksum-valid frames — so [ruidtool fsck] passes on its data
    directory at all times, and a restart recovers through the ordinary
    {!Rstorage.Wal.replay} path and resumes the stream from the durable
    byte offset.  Each drained stream batch is journaled, folded into the
    document's writer copy (checking sequence continuity and every
    renumber record; a disagreement quarantines the document), and
    published through the same {!Snapshot.advance} step the commit
    pipelines use, at version [1 + Σ applied seq] — the primary's
    stamp at the same point, so a caught-up, quiesced follower's replies
    are byte-identical to its upstream's.  A follower one generation
    behind finishes its segment from the archive [seg<g>]; one further
    behind reinstalls the document from the live generation and publishes
    the recovered numbering without a copy.  It serves the [REPL *] verbs
    from its mirror, so followers chain.  It mirrors the document set its
    upstream listed at bootstrap: a document dropped upstream stays served
    from its last mirrored copy, one added upstream is not mirrored.  It
    refuses UPDATE and the membership verbs, and spawns no commit-pipeline
    domain.  The highest epoch ever seen is persisted in
    [<data-dir>/EPOCH]; bytes stamped with a lower epoch are refused and
    counted, never merged.

    {b Promotion.}  [PROMOTE] stops the puller, bumps and persists the
    epoch, opens each journal's writer at its mirrored offset, resumes the
    version counter at [1 + Σ applied seq] and starts the commit
    pipelines: from then on the node is a primary in every respect (group
    commit, rotation at [wal_segment_bytes], the membership verbs), and a
    chain below it keeps streaming, since its journals continue at the
    same byte offsets. *)

exception Fenced of { seen : int; got : int }
(** The upstream served epoch [got], below the highest epoch [seen] this
    data directory has ever followed. *)

type config = {
  socket_path : string;  (** Unix domain socket (paths are length-limited) *)
  data_dir : string;  (** snapshots + WALs live here; created if absent *)
  workers : int;  (** systhread worker pool size (writes; reads when
                      [domains = 0]) *)
  max_queue : int;  (** admission queue bound per pool; beyond it: [BUSY].
                        0 = default: 4 × the pool's worker count *)
  deadline_ms : int;  (** per-request deadline; 0 disables *)
  max_area_size : int;  (** numbering parameter for hosted documents *)
  max_depth : int;
      (** maximal XML element nesting accepted on every ingest path —
          startup files and runtime ADDDOC/ADDCHUNK alike; deeper input
          is rejected before any node is built *)
  domains : int;  (** read-executor domain count; 0 = reads share the
                      systhread pool (single-domain behavior) *)
  cache_mb : int;  (** result-cache budget in MiB; 0 disables caching *)
  commit_interval_us : int;
      (** extra microseconds a commit leader waits for stragglers before
          flushing a non-full batch; 0 (the default) = natural batching
          only — arrivals during the in-flight fsync form the next batch,
          and a lone writer never waits *)
  commit_max_batch : int;
      (** most records coalesced into one WAL batch frame / one snapshot
          publication; 1 = unbatched (every record its own fsync) *)
  commit_groups : int;
      (** independent commit pipelines; documents hash to one by name.
          0 (the default) = one pipeline per read domain ([domains]),
          minimum 1.  1 = the single-pipeline behavior (all writes share
          one mutex, queue and leader) *)
  wal_segment_bytes : int;
      (** rotate a document's WAL segment once it reaches this size,
          cutting a checkpoint; 0 disables rotation *)
  plan_cache : int;
      (** compiled-plan cache capacity in plans (shared by the whole
          collection, keyed by DataGuide fingerprint + canonical query
          text); 0 disables plan caching *)
  epoch : int;
      (** fencing generation this primary serves under ({!Replication}):
          persisted to [<data_dir>/EPOCH] at startup and stamped on every
          [REPL *] reply, so followers can refuse a deposed primary.  A
          follower serves the highest epoch it has seen instead. *)
  upstream : string option;
      (** [Some socket]: follow the node there (a primary or another
          follower) instead of numbering documents of one's own *)
  poll_ms : int;  (** following: REPL WAIT long-poll timeout per round *)
}

val default_config : socket_path:string -> data_dir:string -> unit -> config
(** workers 4, max_queue 0 (= 4 × workers), deadline_ms 0,
    max_area_size 64, max_depth 10000, domains 0, cache_mb 0,
    commit_interval_us 0,
    commit_max_batch 64, commit_groups 0 (= one per read domain, min 1),
    wal_segment_bytes 0, plan_cache 256, epoch 1, upstream [None],
    poll_ms 500. *)

val resolved_max_queue : max_queue:int -> workers:int -> domains:int -> int
(** The effective per-pool admission bound of a server with [workers]
    systhreads and [domains] read domains (0 for none): [max_queue] when
    positive, else 4 × the larger pool.  The CLI reads it too. *)

val ensure_dir : string -> unit
(** Create a data directory unless it exists.
    @raise Invalid_argument when the path exists and is not a directory. *)

val resolved_commit_groups : config -> int
(** The effective commit-pipeline count: [commit_groups] when positive,
    else [max 1 domains]. *)

val validate_config : config -> (unit, string) result
(** Bounds checking for the CLI flags: workers >= 1, max_queue >= 0
    (0 = auto), deadline_ms >= 0, max_area_size >= 2, max_depth >= 1,
    domains >= 0,
    cache_mb >= 0, commit_interval_us >= 0, commit_max_batch >= 1,
    commit_groups >= 0 (0 = auto),
    wal_segment_bytes >= 0, plan_cache >= 0, epoch >= 1, poll_ms >= 1,
    a non-empty upstream, socket path non-empty and short enough for
    [sockaddr_un]. *)

type t

val start :
  ?chaos:Rstorage.Fault.plan -> config -> (string * Rxml.Dom.t) list -> t
(** Number and host the named documents, persist their snapshots and open
    their WALs under [data_dir], publish snapshot version 1, and begin
    accepting connections.  The trees become the published snapshot's:
    the service never writes them (updates go to writer clones), and the
    caller must not either.  An empty document list is valid — a shard in
    the collection tier boots bare and is populated by [ADDDOC]/[ADOPT].

    With an [upstream], the document list must be empty: the node
    bootstraps its mirror (resuming from intact local files when present),
    publishes the first local snapshot and begins pulling.  [?chaos] arms
    the fault-injection hook: each received stream chunk may be torn at a
    random byte per the plan's short-write probability, which the
    follower must survive by reconnecting and resuming.
    @raise Fenced when the upstream is behind this data directory's
    persisted fence.
    @raise Invalid_argument on an invalid config or a duplicate document
    name. *)

val stop : t -> unit
(** Graceful shutdown as described above.  Idempotent; callable from any
    thread.  Returns once everything is joined and the socket file is
    removed. *)

val wait : t -> unit
(** Block until {!stop} (from any thread, or a [SHUTDOWN] request)
    completes. *)

val metrics : t -> Metrics.t
val snapshot : t -> Snapshot.t
val config : t -> config

val epoch : t -> int
(** The fencing epoch this node serves under (while following: the
    highest seen). *)

val role : t -> [ `Primary | `Following | `Promoted ]

val cache_stats : t -> Query_cache.stats option
(** Result-cache counters, when a cache is configured. *)

val doc_files : t -> string -> (string * string * string) option
(** [(xml, sidecar, wal)] paths of a hosted document — what to [fsck]
    after shutdown. *)

val eval_read :
  ?cache:Query_cache.t -> Snapshot.t -> Protocol.request -> Protocol.response
(** Evaluate one of the read verbs ([QUERY], [COUNT], [EXPLAIN], [CHECK],
    [QUERYD], [COUNTD], [DOCS]) over an explicit snapshot.  This is the
    service's own read
    path with the snapshot made a parameter, so a caught-up follower's
    replies are byte-identical to the primary's at the same version.  Any other request is answered
    with an internal [ERR]. *)
