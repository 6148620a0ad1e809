(** Collection router: one front-end socket over N independent shard
    processes, each a full {!Service} (own WAL, snapshot store, pools and
    caches), speaking the same length-prefixed {!Protocol} on both sides.

    The paper's area-confined-update property (Section 3.2) makes
    documents fully independent, so the tier needs no cross-shard
    transactions: every single-document verb (UPDATE, CHECK, QUERYD,
    COUNTD, ADDDOC, DROPDOC) forwards to the owning shard by
    {!Shard_map} lookup, and the collection-wide verbs (QUERY, COUNT,
    EXPLAIN, DOCS) scatter to every shard, then merge.  A scatter runs on
    the requesting session's thread: it sends on each shard's pooled
    connection, at most [fanout] requests outstanding, and waits for the
    replies in one select, each under a per-shard deadline.

    {b Merge rules} (deterministic, shard-index order — pinned by the
    byte-equivalence tests):
    - [COUNT]: [v=] sums the shard versions, [total=] sums the shard
      totals, per-document [name=n] tokens concatenate in shard order
      (capped; ["..."] marks elision).
    - [QUERY]: as COUNT, plus the merged [ids] listing: shard-order
      concatenation capped at the same 32 identifiers a shard lists.
    - [EXPLAIN]: [v=] line, then each shard's plan under a
      ["shard <i>"] heading (["shard <i> unavailable"] for a missing
      one).
    - [DOCS]: [v=], total [docs=], and per-shard [shard<i>=n] counts —
      names are not listed; a 100k-document corpus must not blow the
      frame cap.

    {b Degradation contract.}  A shard that is down or misses its
    deadline removes its connection from the pool (a later request
    reconnects with {!Client.connect_retry}'s bounded backoff).  Scatter
    replies from the remaining shards still merge, flagged with a
    trailing [partial=<missing>/<shards>] token — [OK] with [partial=]
    means {e degraded but serving}.  Single-document verbs owned by live
    shards are unaffected; those owned by the dead shard answer [ERR].

    {b Staleness.}  Each shard serves snapshot-isolated reads at its own
    version; a scatter observes a vector of per-shard snapshots, never a
    cross-shard point in time.  The merged [v=] (the version sum) is
    monotonic: it can only grow when any shard's state advances.

    {b Rebalance} ([REBALANCE <doc> <target>]): the document's
    artifacts are pulled from the owning shard over the replication FILE
    machinery and staged on the target with chunked [ADOPT]s while
    traffic continues; then the router takes its exclusive gate (new
    requests wait, in-flight ones drain), ships whatever journal tail
    accrued meanwhile, commits the adoption, drops the source copy and
    flips the map.  The reply reports the measured exclusive pause. *)

type config = {
  socket_path : string;  (** the router's own Unix socket *)
  shard_sockets : string array;  (** shard service sockets, shard order *)
  fanout : int;
      (** requests a scatter keeps outstanding (sent, reply not yet read);
          0 = all shards *)
  shard_deadline_ms : int;
      (** per-shard call deadline; an expiring call marks the shard down
          and poisons its pooled connection; 0 disables *)
  connect_retries : int;
      (** reconnect attempts (bounded backoff) when a pooled connection
          is found dead *)
}

val default_config :
  socket_path:string -> shard_sockets:string array -> unit -> config
(** fanout 0 (= all shards), shard_deadline_ms 2000, connect_retries 3. *)

val validate_config : config -> (unit, string) result
(** At least one shard, no empty shard path, no shard on the router's own
    socket, non-negative fanout, deadline and retries, and a socket path
    {!Listener.check_socket_path} accepts. *)

type t

val start : config -> t
(** Bind the router socket and begin serving.  Shards are contacted
    lazily — a router can boot before its shards — except for one eager
    catalog sweep: a [DOCS] scatter seeds the {!Shard_map} overrides so
    documents placed off-hash (e.g. loaded by [serve --doc]) route
    correctly from the first request. *)

val stop : t -> unit
val wait : t -> unit
val metrics : t -> Metrics.t
val shard_map : t -> Shard_map.t

(** {1 Pure merge kernels}

    Exposed for the scatter-gather correctness tests: the router's
    replies are exactly these functions over the per-shard reply bodies.
    [replies] are [(shard_index, ok_body)] pairs in shard-index order;
    [missing] are the shard indexes that were down or timed out. *)

val merge_count :
  shards:int -> replies:(int * string) list -> missing:int list -> string

val merge_query :
  shards:int -> replies:(int * string) list -> missing:int list -> string

val merge_explain :
  shards:int -> replies:(int * string) list -> missing:int list -> string

val merge_docs :
  shards:int -> replies:(int * string) list -> missing:int list -> string
