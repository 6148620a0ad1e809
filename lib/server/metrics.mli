(** Per-request metrics registry of the document service.

    One mutex-protected instance is shared by every session and worker
    thread: request/outcome counters per protocol verb, a log-scale
    latency histogram (power-of-two nanosecond buckets, so percentile
    estimates cost O(buckets) and recording is O(1)), and gauges probed at
    dump time (queue depth, snapshot version and age).  The [STATS]
    protocol verb renders {!render}. *)

type t

val create : unit -> t

val record : t -> verb:string -> outcome:[ `Ok | `Err | `Busy ] ->
  latency_ns:float -> unit
(** Account one finished request.  Latency is measured by the session from
    frame-decoded to reply-written; BUSY rejections are counted with their
    (tiny) latency too, so overload shows up in the rate, not the tail. *)

val record_dropped : t -> verb:string -> exn -> unit
(** Account one exception that escaped a pool job (scheduler or executor).
    Every occurrence is counted; the first occurrence per verb is also
    logged to stderr — jobs must not raise, so a nonzero counter is a bug
    signal, never silently eaten. *)

val dropped : t -> int
(** Total exceptions recorded by {!record_dropped} since the last reset. *)

val record_session_error : t -> unit
(** Account one session that ended exceptionally — a peer that dropped
    mid-frame or vanished before reading its reply (EPIPE on the write).
    Such a session closes alone; the counter is how the event stays
    observable ([session_errors=] in STATS). *)

val session_errors : t -> int

val set_queue_probe : t -> (unit -> int) -> unit
(** Gauge: current depth of the admission queue. *)

val set_snapshot_probe : t -> (unit -> int * float) -> unit
(** Gauge: (version, published-at unix time) of the live snapshot. *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

val set_cache_probe : t -> (unit -> cache_stats) -> unit
(** Gauge: result-cache counters; rendered as [cache_*] keys (hit rate
    included) when set. *)

val set_domain_probe : t -> (unit -> float array) -> unit
(** Gauge: per-domain busy time in seconds accumulated by the read
    executor; rendered as [domains=N domain_busy_ms=a,b,...] when set. *)

type write_stats = {
  batches : int;  (** commit batches fsynced (group commits) *)
  records : int;  (** update records across those batches *)
  max_batch : int;  (** largest single batch *)
  flush_ns : float;  (** total time in append+fsync, nanoseconds *)
  publish_incremental : int;  (** snapshots derived by clone + replay *)
  publish_full : int;
      (** snapshots re-captured via the sidecar: always 0, every
          publication is derived; the key stays for STATS readers *)
  areas_rebuilt : int;  (** area renumberings across incremental publishes *)
  rotations : int;  (** WAL segment rotations (checkpoints cut) *)
  rotation_failures : int;
      (** rotations that raised before their commit: the old segment
          stayed in force and a later batch retried *)
  private_masters : int;
      (** documents holding a writer copy of their numbering (made by a
          document's first UPDATE); every other document is resident once,
          in the snapshot *)
}

val set_write_probe : t -> (unit -> write_stats) -> unit
(** Gauge: group-commit pipeline counters, aggregated across every commit
    group; rendered as [wal_*] (with a derived mean batch size),
    [publish_*] and [private_masters] keys when set. *)

type pipeline_group_stats = {
  gq_depth : int;  (** records parked in this group's commit queue now *)
  g_batches : int;  (** batches this group's leader fsynced *)
  g_records : int;  (** records across those batches *)
  g_handoffs : int;  (** idle→draining transitions of the group's leader *)
  g_lock_wait : int array;
      (** log2-ns histogram ({!hist_buckets} wide) of time writers spent
          waiting for this group's write mutex *)
  g_fsync_wait : int array;
      (** log2-ns histogram of per-document batch append+fsync time *)
}

val set_pipeline_probe : t -> (unit -> pipeline_group_stats array) -> unit
(** Gauge: per-commit-group contention counters, one slot per group;
    rendered as a [commit_groups=N leader_handoffs=T] summary line plus one
    [group=k ...] line per group (queue depth, batch/record counters,
    lock-wait and fsync-wait p50/p99 and sparse histograms) when set. *)

(** {1 Histogram helpers}

    The same power-of-two-nanosecond bucketing the request-latency
    histogram uses, exposed so subsystems can maintain their own wait
    histograms without taking the registry mutex per sample. *)

val hist_buckets : int
(** Width every histogram array must have (62). *)

val hist_bucket : float -> int
(** [hist_bucket ns]: index of the bucket covering a duration in
    nanoseconds — bucket i counts samples in [2^i, 2^(i+1)). *)

val hist_percentile : int array -> float -> float
(** [hist_percentile h q]: upper bound (ns) of the bucket holding the
    q-quantile sample; 0 for an empty histogram. *)

type planner_stats = {
  chain : int;  (** queries executed as chain structural-join pipelines *)
  twig : int;  (** queries executed by the twig semijoin *)
  engine : int;  (** queries that fell back to the full evaluator *)
  pruned : int;  (** queries refuted by the DataGuide (answered empty) *)
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  plan_entries : int;
}

val set_planner_probe : t -> (unit -> planner_stats) -> unit
(** Gauge: query-planner strategy and plan-cache counters; rendered as
    [planner_*] and [plan_cache_*] keys (hit rate included) when set. *)

type repl_stats = {
  role : string;  (** ["primary"], ["replica"], or ["promoted"] *)
  epoch : int;  (** fencing generation this node serves under *)
  served_requests : int;  (** REPL-* requests answered (either side) *)
  served_bytes : int;  (** journal bytes shipped to followers *)
  lag_versions : int;  (** follower: primary version − local version *)
  lag_bytes : int;  (** follower: journal bytes fetched but not yet known *)
  last_applied_seq : int;  (** follower: Σ applied sequence over docs *)
  reconnects : int;  (** follower: times the pull connection was rebuilt *)
  refused_epoch : int;  (** follower: frames refused from a stale epoch *)
}

val set_repl_probe : t -> (unit -> repl_stats) -> unit
(** Gauge: replication counters; rendered as [repl_*] keys when set (the
    follower-side keys only for non-primary roles). *)

type router_stats = {
  shard_up : bool array;  (** per-shard liveness, shard order *)
  shard_docs : int array;  (** catalogued documents per shard *)
  inflight : int;
      (** shard requests currently in flight: scatter sub-requests and
          forwards *)
  scatters : int;  (** scatter-gather queries served *)
  partials : int;  (** of which answered degraded (>= 1 shard missing) *)
  fanout_hist : int array;
      (** histogram of live fan-out per scatter: slot k counts scatters
          that reached exactly k shards *)
  rebalances : int;  (** completed document moves *)
  rebalance_pause_ms : float;  (** total measured write-pause time *)
}

val set_router_probe : t -> (unit -> router_stats) -> unit
(** Gauge: collection-router counters; rendered as [router_*] keys when
    set. *)

(** {1 Reading} *)

type summary = {
  requests : int;
  ok : int;
  err : int;
  busy : int;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  max_ns : float;
}

val summary : t -> summary
(** Percentiles are upper bucket bounds of the histogram: exact to within
    a factor of 2, which is what a log-scale histogram buys. *)

val percentile : t -> float -> float
(** [percentile t 0.95]: latency bound in ns below which that fraction of
    requests completed; 0 when nothing was recorded. *)

val by_verb : t -> (string * int * int * int) list
(** Per verb: (verb, ok, err, busy), verbs sorted. *)

val proc_status : string -> int
(** [proc_status key] is the number after [key:] in [/proc/self/status]
    ([VmHWM] in KiB, [Threads], ...); 0 where that file or line is
    unreadable (non-Linux). *)

val vm_hwm_kb : unit -> int
(** The process's peak resident set in KiB, [proc_status "VmHWM"].  The
    mark only rises over a process's life: the footprint of one phase is
    the difference of a sample before and after it. *)

val render : t -> string
(** Multi-line [k=v] dump: totals, per-verb counters, latency percentiles,
    queue depth, snapshot version/age, and the process's memory:
    [heap_words] and [top_heap_words] from [Gc.quick_stat] (the major
    heap now and at its peak) and [vm_hwm_kb], the peak resident set
    ([VmHWM] in [/proc/self/status], 0 where unreadable).  The [STATS]
    reply body. *)

val reset : t -> unit
