module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Wal = Rstorage.Wal
module Fault = Rstorage.Fault

type config = {
  socket_path : string;
  data_dir : string;
  workers : int;
  max_queue : int;
  deadline_ms : int;
  max_area_size : int;
  max_depth : int;
  domains : int;
  cache_mb : int;
  commit_interval_us : int;
  commit_max_batch : int;
  commit_groups : int;
  wal_segment_bytes : int;
  plan_cache : int;
  epoch : int;
  upstream : string option;
  poll_ms : int;
}

let default_config ~socket_path ~data_dir () =
  { socket_path; data_dir; workers = 4; max_queue = 0; deadline_ms = 0;
    max_area_size = 64; max_depth = 10_000; domains = 0; cache_mb = 0;
    commit_interval_us = 0; commit_max_batch = 64; commit_groups = 0;
    wal_segment_bytes = 0; plan_cache = 256; epoch = 1; upstream = None;
    poll_ms = 500 }

(* E13 showed the old fixed default rejecting 67% of a 90/10 mix at only
   8 clients: a queue bound that ignores the pool size punishes exactly
   the configurations that could absorb the burst.  The default bound now
   scales with the pool: 4 jobs of headroom per worker of the larger one. *)
let resolved_max_queue ~max_queue ~workers ~domains =
  if max_queue > 0 then max_queue else 4 * max workers domains

(* Default the commit-pipeline count to the read-executor domain count: a
   box granted N domains for reads deserves N write pipelines too, and a
   single-domain configuration keeps the single-pipeline (= old global
   mutex) behavior. *)
let resolved_commit_groups c =
  if c.commit_groups > 0 then c.commit_groups else max 1 c.domains

let validate_config c =
  if c.workers < 1 then Error "workers must be >= 1"
  else if c.max_queue < 0 then
    Error "max-queue must be >= 1 (or 0 for the default of 4 x workers)"
  else if c.deadline_ms < 0 then Error "deadline-ms must be >= 0"
  else if c.max_area_size < 2 then Error "max-area-size must be >= 2"
  else if c.max_depth < 1 then Error "max-depth must be >= 1"
  else if c.domains < 0 then Error "domains must be >= 0 (0 disables)"
  else if c.cache_mb < 0 then Error "cache-mb must be >= 0 (0 disables)"
  else if c.commit_interval_us < 0 then Error "commit-interval-us must be >= 0"
  else if c.commit_max_batch < 1 then Error "commit-batch must be >= 1"
  else if c.commit_groups < 0 then
    Error "commit-groups must be >= 0 (0 = one per read domain, min 1)"
  else if c.wal_segment_bytes < 0 then
    Error "wal-segment-bytes must be >= 0 (0 disables rotation)"
  else if c.plan_cache < 0 then
    Error "plan-cache must be >= 0 (0 disables plan caching)"
  else if c.epoch < 1 then
    Error "epoch must be >= 1 (the fencing generation this primary serves)"
  else if c.poll_ms < 1 then Error "poll-ms must be >= 1"
  else if c.upstream = Some "" then
    Error "primary socket path must not be empty"
  else Listener.check_socket_path c.socket_path

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type master = {
  name : string;
  group : int;
      (** commit group this document hashes to ({!Shard_map.hash} of the
          name); fixed for the document's whole life — the name determines
          it, and slot revival keeps the name *)
  mutable retired : bool;
      (** set (under the group's write mutex, all commit queues quiesced)
          by DROPDOC: the slot stays — the commit queues address masters by
          index — but the document refuses updates and stops being served *)
  mutable r2 : R2.t option;
      (** the writer's handle, never read by readers: an O(1) clone of the
          published numbering, taken by the first operation applied after
          the published copy caught up ({!writer_copy}), so a written
          document stays resident about once.  Written under the group's
          write mutex, or by the puller while following. *)
  mutable wal : Wal.writer option;
      (** [None] while following: the puller appends verified frames
          itself; PROMOTE opens the writer at the mirrored offset *)
  mutable applied_seq : int;
      (** sequence number of the last operation applied to [r2]; runs ahead
          of the journal while records sit in the commit queue *)
  mutable applied_version : int;
      (** snapshot version of the last operation applied to [r2]; guarded
          by the group's write mutex like [applied_seq] *)
  mutable wedged : string option;
      (** set when a failed commit or publication left this document's
          journal or published snapshot out of step with its master, or an
          update failed part-way on a master with records pending: the
          document is quarantined — its updates refused, its stream no
          longer folded — and stays served at its last published version *)
  xml_path : string;
  sidecar_path : string;
  wal_path : string;
  files_mu : Mutex.t;
      (** makes ([gen], file bytes) atomic for the [REPL *] verbs against
          a rotation and a generation install, which each replace
          the active segment, move [gen] and trim the family as separate
          steps — a session reading unsynchronized could serve
          new-generation bytes labeled with the old generation, which a
          follower would splice into the wrong mirror.  Held across those
          steps and each chunk read, never across a serialization, a
          fetch or a wait. *)
  mutable gen : int;  (** generation of the active segment *)
  mutable size : int;
      (** following: bytes of the local journal, all complete frames
          folded into the document and fsynced — the stream offset *)
  mutable tail : string;
      (** following: fetched bytes not yet forming complete frames *)
}

(* One applied-but-not-yet-durable update, parked in the commit queue. *)
type pending = {
  doc_index : int;
  record : Wal.record;
  version : int;  (** the snapshot version this update introduces *)
  iv : Protocol.response Listener.Ivar.t;
}

type write_counters = {
  mutable w_batches : int;
  mutable w_records : int;
  mutable w_max_batch : int;
  mutable w_flush_ns : float;
  mutable w_pub_inc : int;
  mutable w_areas : int;
  mutable w_rotations : int;
  mutable w_rotation_failures : int;
}

(* One independent commit pipeline.  Documents hash to a group by name;
   the group exclusively owns its documents' masters and journal families,
   so groups apply, fsync and publish with no ordering between them —
   only the snapshot-pointer CAS is shared. *)
type group = {
  g_id : int;
  g_write_mu : Mutex.t;
      (** orders phase 1 (apply + sequence + enqueue) for this group's
          documents; also taken by quarantine, which reads masters a
          writer may be mutating *)
  g_mu : Mutex.t;  (** guards queue, leader flag, counters, histograms *)
  g_cond : Condition.t;  (** signals the pipeline domain on arrival/stop *)
  g_queue : pending Queue.t;
  mutable g_committing : bool;
      (** the pipeline is draining; arrivals coalesce into its next batch *)
  mutable g_stop : bool;
  g_writes : write_counters;
  mutable g_handoffs : int;  (** idle→draining transitions of the leader *)
  g_lock_wait : int array;  (** log2-ns histogram of [g_write_mu] waits *)
  g_fsync_wait : int array;
      (** log2-ns histogram of per-document batch append+fsync times *)
}

type t = {
  cfg : config;
  mutable masters : master array;
      (** grows (never shrinks, never reorders) with every group's write
          mutex held and every commit queue quiesced; the array itself is
          replaced wholesale on growth, so a reader holding the old array
          keeps valid indices *)
  catalog : (string, int) Hashtbl.t;  (** name -> masters index *)
  catalog_mu : Mutex.t;
  adopt_mu : Mutex.t;
      (** serializes ADOPT/ADDCHUNK staging appends + commits *)
  planner_shared : Rxpath.Planner.shared;
  current : Snapshot.t Atomic.t;
  groups : group array;  (** the commit pipelines; length >= 1, fixed *)
  mutable pipelines : unit Domain.t array;
      (** one dedicated domain per group, spawned when the node starts
          taking writes (at start, or at PROMOTE), joined at stop *)
  last_version : int Atomic.t;
      (** version of the last applied update — the global stamp source,
          shared by every group (fetch-and-add) *)
  epoch : int Atomic.t;
      (** fencing epoch: the one this node serves under, or while
          following the highest one ever seen (persisted) *)
  role : [ `Primary | `Following | `Promoted ] Atomic.t;
      (** [`Following] until PROMOTE, which flips it once the node
          takes writes *)
  promote_mu : Mutex.t;  (** makes PROMOTE idempotent under races *)
  pull_stop : bool Atomic.t;  (** set by promotion *)
  mutable puller : Thread.t option;
  wake : (Unix.file_descr * Unix.file_descr) option;
      (** following: the pipe the puller's back-off parks on; promotion
          and stop write to it so neither waits the back-off out *)
  chaos : Fault.plan option;
  reconnects : int Atomic.t;
  refused_epoch : int Atomic.t;
  lag_versions : int Atomic.t;
  lag_bytes : int Atomic.t;
  repl_requests : int Atomic.t;  (** REPL-* requests served *)
  repl_bytes : int Atomic.t;  (** journal/snapshot bytes shipped *)
  sched : Pool.t;  (** systhread pool: writes, and reads without domains *)
  exec : Pool.t option;  (** parallel read pool; [None] = systhreads *)
  cache : Query_cache.t option;
  metrics : Metrics.t;
  listener : Listener.t;
}

let metrics t = t.metrics
let snapshot t = Atomic.get t.current
let config t = t.cfg
let cache_stats t = Option.map Query_cache.stats t.cache
let epoch t = Atomic.get t.epoch
let role t = Atomic.get t.role
let following t = Atomic.get t.role = `Following

let with_mutex mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let find_master_idx t doc =
  Mutex.lock t.catalog_mu;
  let idx = Hashtbl.find_opt t.catalog doc in
  Mutex.unlock t.catalog_mu;
  match idx with
  | Some i when not t.masters.(i).retired -> Some i
  | _ -> None

let find_master t doc =
  Option.map (fun i -> t.masters.(i)) (find_master_idx t doc)

let doc_files t name =
  Option.map (fun m -> (m.xml_path, m.sidecar_path, m.wal_path))
    (find_master t name)

(* ------------------------------------------------------------------ *)
(* Request execution (runs on worker threads)                          *)
(* ------------------------------------------------------------------ *)

let pp_id_compact id =
  Printf.sprintf "(%d,%d,%b)" id.R2.global id.R2.local id.R2.is_root

(* At most this many matching identifiers are listed in a QUERY reply
   (and therefore cached per document — enough to rebuild any reply). *)
let id_cap = 32

(* Per-document answer via the result cache.  The snapshot version is part
   of the cache key, so an entry can only ever answer the exact snapshot it
   was computed against; [kind] separates the COUNT and QUERY namespaces.
   Computed values are small strings (a count, or a count plus at most
   [id_cap] identifiers), so caching cost is bounded per entry. *)
let with_cache cache s (d : Snapshot.doc) ~kind ~normq compute =
  match cache with
  | None -> compute ()
  | Some cache ->
    let query = kind ^ normq in
    let doc = d.Snapshot.name and version = s.Snapshot.version in
    (match Query_cache.find cache ~doc ~version ~query with
    | Some v -> v
    | None ->
      let v = compute () in
      Query_cache.add cache ~doc ~version ~query v;
      v)

(* At most this many per-document [name=count] tokens are listed in a
   COUNT/QUERY reply body (the totals always cover every document): a
   shard hosting a 100k-document corpus must not blow the 1 MiB frame cap
   on every collection-wide answer.  Small collections — everything the
   pre-collection tests exercise — are listed in full, unchanged. *)
let doc_cap = 64

let capped_tokens render per_doc =
  let listed = List.filteri (fun i _ -> i < doc_cap) per_doc in
  String.concat " " (List.map render listed)
  ^ if List.length per_doc > doc_cap then " ..." else ""

(* A read's keys, computed once per request: the result cache's spelling
   of the query, and the plan cache's key — the canonical text when there
   is one ([Query_cache.normalize] falls back to a whitespace collapse,
   which plans are never cached under). *)
let read_keys src =
  match Rxpath.Xparser.canonical src with
  | Some c -> (c, Some c)
  | None -> (Query_cache.normalize src, None)

let count_one cache s d ~normq ~key parsed =
  let v =
    with_cache cache s d ~kind:"C\x00" ~normq (fun () ->
        string_of_int (Snapshot.count_doc ~key d (Lazy.force parsed)))
  in
  (d.Snapshot.name, int_of_string v)

let eval_count ?cache s src =
  let normq, key = read_keys src in
  let parsed = lazy (Snapshot.parse src) in
  let per_doc =
    List.map
      (fun d -> count_one cache s d ~normq ~key parsed)
      (Snapshot.live_docs s)
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 per_doc in
  Protocol.Ok_
    (Printf.sprintf "v=%d total=%d %s" s.Snapshot.version total
       (capped_tokens (fun (name, n) -> Printf.sprintf "%s=%d" name n) per_doc))

(* Cached value: the count followed by the first [id_cap] identifiers,
   space-separated (identifiers contain no spaces). *)
let query_one cache s d ~normq ~key parsed =
  let v =
    with_cache cache s d ~kind:"Q\x00" ~normq (fun () ->
        let total, nodes =
          Snapshot.query_doc_first ~key d ~k:id_cap (Lazy.force parsed)
        in
        let ids =
          List.map (fun n -> pp_id_compact (R2.id_of_node d.Snapshot.r2 n)) nodes
        in
        String.concat " " (string_of_int total :: ids))
  in
  match String.split_on_char ' ' v with
  | n :: ids -> (d.Snapshot.name, int_of_string n, ids)
  | [] -> assert false

let query_reply version per_doc =
  let total = List.fold_left (fun acc (_, n, _) -> acc + n) 0 per_doc in
  let ids =
    List.concat_map
      (fun (name, _, ids) -> List.map (fun i -> name ^ ":" ^ i) ids)
      per_doc
  in
  let shown = List.filteri (fun i _ -> i < id_cap) ids in
  Protocol.Ok_
    (Printf.sprintf "v=%d total=%d %s%s" version total
       (capped_tokens (fun (name, n, _) -> Printf.sprintf "%s=%d" name n)
          per_doc)
       (if shown = [] then ""
        else " ids " ^ String.concat " " shown
             ^ if total > id_cap then " ..." else ""))

let eval_query ?cache s src =
  let normq, key = read_keys src in
  let parsed = lazy (Snapshot.parse src) in
  let per_doc =
    List.map
      (fun d -> query_one cache s d ~normq ~key parsed)
      (Snapshot.live_docs s)
    |> List.filter (fun (_, n, _) -> n > 0)
  in
  query_reply s.Snapshot.version per_doc

(* The per-document read verbs (QUERYD/COUNTD): the router's no-scatter
   fast path.  Same per-document cache entries as the collection-wide
   verbs — a COUNTD warms the COUNT of the same snapshot and vice versa. *)
let eval_count_doc ?cache s doc src =
  match Snapshot.find s doc with
  | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | Some (_, d) ->
    let normq, key = read_keys src in
    let parsed = lazy (Snapshot.parse src) in
    let name, n = count_one cache s d ~normq ~key parsed in
    Protocol.Ok_
      (Printf.sprintf "v=%d total=%d %s=%d" s.Snapshot.version n name n)

let eval_query_doc ?cache s doc src =
  match Snapshot.find s doc with
  | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | Some (_, d) ->
    let normq, key = read_keys src in
    let parsed = lazy (Snapshot.parse src) in
    let (_, n, _) as one = query_one cache s d ~normq ~key parsed in
    query_reply s.Snapshot.version (if n > 0 then [ one ] else [])

(* EXPLAIN renders the plan per document.  Always uncached and never in
   the result cache: the point is measured actual cardinalities and
   timings for THIS execution. *)
let eval_explain s src =
  match Snapshot.parse src with
  | exception Failure msg -> Protocol.Err msg
  | _ ->
    let parts =
      Snapshot.live_docs s
      |> List.map (fun d ->
             match Snapshot.explain_doc d src with
             | Ok text -> Printf.sprintf "doc %s\n%s" d.Snapshot.name text
             | Error why ->
               Printf.sprintf "doc %s\nexplain unavailable: %s"
                 d.Snapshot.name why)
    in
    Protocol.Ok_
      (Printf.sprintf "v=%d\n%s" s.Snapshot.version
         (String.concat "\n" parts))

(* --- Commit pipelines ---------------------------------------------

   An UPDATE splits into two phases.  Under its document's {e group} write
   mutex the operation is applied to the master numbering, given a
   sequence number and a snapshot version, and parked in the group's
   commit queue — microseconds of work.  The durable part (one WAL append
   + fsync per touched document, one snapshot publication per batch) is
   done by the group's {e pipeline}: a dedicated domain that drains the
   queue whenever it is nonempty.  Every record that arrives while the
   pipeline's fsync is in the kernel coalesces into its next batch frame,
   so N concurrent writers of one group share one fsync instead of paying
   N — the group commit.  A lone writer's record is picked up immediately:
   its latency is one wake-up + append + fsync + publish, the unbatched
   path.  Writers park on their response ivar; the pipeline fills it after
   the batch's fsync and publication, so an UPDATE is never acknowledged
   before it is durable {e and} visible.

   Documents hash to groups by name ({!Shard_map.hash}, the same stable
   placement hash the collection router uses), so a group owns a fixed,
   disjoint set of masters and their per-document journal families.
   Everything per-document — ordering, quarantine, WAL batch atomicity,
   segment rotation — therefore needs no cross-group coordination at all.
   The only shared write state is the snapshot pointer: concurrent
   publications race on [Atomic.compare_and_set] and retry against the
   freshly-read current (their document sets are disjoint, so the folds
   commute), and the global version stamp, pre-assigned per update by a
   fetch-and-add counter. *)

let record_wait hist ns =
  let b = Metrics.hist_bucket ns in
  hist.(b) <- hist.(b) + 1

(* Drain up to [commit_max_batch] queued updates (pipeline only). *)
let take_batch t (g : group) =
  Mutex.lock g.g_mu;
  let rec go acc n =
    if n = 0 || Queue.is_empty g.g_queue then List.rev acc
    else go (Queue.pop g.g_queue :: acc) (n - 1)
  in
  let batch = go [] t.cfg.commit_max_batch in
  Mutex.unlock g.g_mu;
  batch

(* Slot [idx] of the current snapshot. *)
let published t idx = (Atomic.get t.current).Snapshot.docs.(idx)

(* The document's writer copy: its own while it holds operations the
   published copy lacks, else a fresh O(1) clone of the published
   numbering, which shares every table and the tree. *)
let writer_copy t idx m =
  match m.r2 with
  | Some r2 when (published t idx).Snapshot.doc_version < m.applied_version ->
    r2
  | _ ->
    let c = R2.clone (published t idx).Snapshot.r2 in
    m.r2 <- Some c;
    c

(* The one publication step, for commit batches and stream batches alike:
   derive the successor of the current snapshot with {!Snapshot.advance}
   and install it by compare-and-set.  Other groups publish concurrently;
   on a lost race the successor is derived again from the freshly-read
   current.  The document sets are disjoint, so the re-derivation folds
   exactly the same per-document copies; only the stamp is recomputed
   ({!Snapshot.next_stamp}).  [floor] is the highest update version the
   batch folds in.  Returns the installed snapshot and the areas
   renumbered.  A raising [advance] installs nothing. *)
let rec advance_current t ~floor updates =
  let prev = Atomic.get t.current in
  let version = Snapshot.next_stamp prev ~floor in
  let next, areas = Snapshot.advance prev ~version updates in
  if Atomic.compare_and_set t.current prev next then (next, areas)
  else advance_current t ~floor updates

(* Rotate the WAL of every document whose segment outgrew the threshold,
   checkpointing from the snapshot this batch published, which holds
   exactly the document's durable prefix: the group's later records are
   neither journaled nor published yet.  The snapshot copy is already
   isolated from the master, so serializing it races with nothing — and
   it runs before [files_mu] is taken, so replication reads wait for the
   file swap only.  A rotation that raises (a full disk, a path it cannot write) left the
   old segment in force: it is counted and retried on a later batch,
   never reported as a commit failure — the batch's records are durable
   and acknowledged by then. *)
let maybe_rotate t (g : group) snap by_doc =
  let count f =
    Mutex.lock g.g_mu;
    f g.g_writes;
    Mutex.unlock g.g_mu
  in
  if t.cfg.wal_segment_bytes > 0 then
    List.iter
      (fun (idx, _) ->
        let m = t.masters.(idx) in
        let w = Option.get m.wal in
        if Wal.should_rotate w ~threshold:t.cfg.wal_segment_bytes then begin
          let r2 = snap.Snapshot.docs.(idx).Snapshot.r2 in
          let xml = Ruid.Persist.xml_to_bytes r2
          and sidecar = Ruid.Persist.sidecar_to_bytes r2 in
          match
            with_mutex m.files_mu (fun () ->
                m.gen <- Wal.rotate w ~xml ~sidecar)
          with
          | () -> count (fun w -> w.w_rotations <- w.w_rotations + 1)
          | exception _ ->
            count (fun w -> w.w_rotation_failures <- w.w_rotation_failures + 1)
        end)
      by_doc

(* What a quarantine leaves behind, in every reply that reports one: the
   journal keeps each acknowledged update, but a restarted primary numbers
   its input afresh and starts a new journal, so only an offline replay
   recovers them. *)
let quarantine_note =
  "its journal keeps every acknowledged update for an offline replay \
   (ruidtool wal-replay); a restarted primary numbers its input afresh"

let quarantine_reply why =
  Protocol.Err
    (Printf.sprintf "update dropped: document quarantined (%s); %s" why
       quarantine_note)

let commit_batch t (g : group) batch =
  (* A document wedged by an earlier failed commit has a master running
     ahead of its journal: appending for it can only fail again (sequence
     break) and would drag this batch's healthy documents down with it.
     Reject its records up front.  [wedged] is written by this group's
     pipeline and by phase 1 (under the group's write mutex, when an update
     fails part-way), so this unlocked read may miss a quarantine that is
     just being set.  That is harmless: every record taken applied cleanly,
     so journaling and publishing it is still right. *)
  let batch, quarantined =
    List.partition (fun p -> t.masters.(p.doc_index).wedged = None) batch
  in
  List.iter
    (fun p ->
      let why =
        Option.value ~default:"unknown" t.masters.(p.doc_index).wedged
      in
      Listener.Ivar.fill p.iv (quarantine_reply why))
    quarantined;
  if batch = [] then ()
  else begin
  (* Per-document record groups, queue order preserved (per-document
     subsequences of a FIFO queue keep their sequence numbers consecutive,
     which is what [Wal.append_batch] checks). *)
  let grouped = Hashtbl.create 4 and order = ref [] in
  List.iter
    (fun p ->
      match Hashtbl.find_opt grouped p.doc_index with
      | Some l -> l := p :: !l
      | None ->
        Hashtbl.replace grouped p.doc_index (ref [ p ]);
        order := p.doc_index :: !order)
    batch;
  (* [order] holds first-touch indexes newest first; rev_map restores
     first-touch order. *)
  let by_doc =
    List.rev_map (fun idx -> (idx, List.rev !(Hashtbl.find grouped idx)))
      !order
  in
  let last_of ps = List.fold_left (fun acc p -> max acc p.version) 0 ps in
  (* 1. Durability: one batch frame + one fsync per touched document.
     Groups fsync their disjoint journals concurrently — this is the wait
     the whole refactor parallelizes, so it is also the one we histogram. *)
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (idx, ps) ->
      let m = t.masters.(idx) in
      let d0 = Unix.gettimeofday () in
      Wal.append_batch (Option.get m.wal) (List.map (fun p -> p.record) ps);
      let dns = (Unix.gettimeofday () -. d0) *. 1e9 in
      Mutex.lock g.g_mu;
      record_wait g.g_fsync_wait dns;
      Mutex.unlock g.g_mu)
    by_doc;
  let flush_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  (* 2. Publication, once for the whole batch.  Each document's cursor
     moves to its own last version — never the global stamp, which a
     concurrent group may have pushed past it.  An [advance] that raises
     propagates to [leader_loop], which quarantines every document whose
     published copy trails its master. *)
  let published, areas =
    advance_current t ~floor:(last_of batch)
      (List.map
         (fun (idx, ps) ->
           (idx, List.map (fun p -> p.record.Wal.op) ps, last_of ps))
         by_doc)
  in
  (* 3. Acknowledge: durable and visible. *)
  let n = List.length batch in
  Mutex.lock g.g_mu;
  g.g_writes.w_pub_inc <- g.g_writes.w_pub_inc + 1;
  g.g_writes.w_areas <- g.g_writes.w_areas + areas;
  g.g_writes.w_batches <- g.g_writes.w_batches + 1;
  g.g_writes.w_records <- g.g_writes.w_records + n;
  if n > g.g_writes.w_max_batch then g.g_writes.w_max_batch <- n;
  g.g_writes.w_flush_ns <- g.g_writes.w_flush_ns +. flush_ns;
  Mutex.unlock g.g_mu;
  List.iter
    (fun p ->
      Listener.Ivar.fill p.iv
        (Protocol.Ok_
           (Printf.sprintf "v=%d seq=%d area=%d changed=%d batch=%d"
              p.version p.record.Wal.seq p.record.Wal.area
              p.record.Wal.changed n)))
    batch;
  (* 4. Segment rotation. *)
  maybe_rotate t g published by_doc
  end

let leader_loop t (g : group) =
  let rec drain () =
    (* Optional pacing: with a configured interval, wait for stragglers
       unless the queue already fills a batch.  The default interval of 0
       relies on natural batching — whatever arrives during the in-flight
       fsync forms the next batch — and costs a lone writer nothing. *)
    if t.cfg.commit_interval_us > 0 then begin
      Mutex.lock g.g_mu;
      let n = Queue.length g.g_queue in
      Mutex.unlock g.g_mu;
      if n < t.cfg.commit_max_batch then
        Thread.delay (float_of_int t.cfg.commit_interval_us *. 1e-6)
    end;
    let batch = take_batch t g in
    (try commit_batch t g batch
     with e ->
       (* Never strand a writer: a failed commit (I/O error mid-batch, or
          a publication that raised) reports to every parked session rather
          than hanging them.  The records' durability is unknown; the error
          says so.  And never let a half-committed document keep taking
          writes: a master whose applied state ran ahead of its journal
          would reject every later append with a sequence break, and one
          that ran ahead of the published snapshot would have later
          incremental publications replay onto a base that silently misses
          these records.  Such documents are quarantined — updates refused
          explicitly, the document served at its last published version.
          A document whose journal and snapshot both caught up before the
          failure stays live, and a reply already given stands (an ivar
          keeps its first value).  Only this group's documents are in the
          batch, so only this group pauses to quarantine — other pipelines
          keep committing. *)
       let msg =
         Printf.sprintf "commit failed (durability unknown): %s"
           (Printexc.to_string e)
       in
       Mutex.lock g.g_write_mu;
       let snap = Atomic.get t.current in
       List.iter
         (fun p ->
           let m = t.masters.(p.doc_index) in
           let consistent =
             m.applied_seq = Wal.seq (Option.get m.wal)
             && snap.Snapshot.docs.(p.doc_index).Snapshot.doc_version
                >= m.applied_version
           in
           if (not consistent) && m.wedged = None then m.wedged <- Some msg)
         batch;
       Mutex.unlock g.g_write_mu;
       List.iter (fun p -> Listener.Ivar.fill p.iv (Protocol.Err msg)) batch);
    (* Retire only on an empty queue: arrivals since the drain saw the
       committing flag up and parked without waking the pipeline. *)
    let continue =
      Mutex.lock g.g_mu;
      let more = not (Queue.is_empty g.g_queue) in
      if not more then g.g_committing <- false;
      Mutex.unlock g.g_mu;
      more
    in
    if continue then drain ()
  in
  drain ()

(* The pipeline domain: parked on the condition until a writer enqueues
   (or stop is requested), then drains as the group's commit leader.
   Dedicated domains — not elected session threads — because publication
   is CPU-bound (clone + replay of the touched areas): systhreads all
   share one domain, so elected leaders could never overlap publication
   work; domains can. *)
let rec pipeline_loop t (g : group) =
  Mutex.lock g.g_mu;
  while Queue.is_empty g.g_queue && not g.g_stop do
    Condition.wait g.g_cond g.g_mu
  done;
  if Queue.is_empty g.g_queue then Mutex.unlock g.g_mu
    (* stopping, queue drained: exit *)
  else begin
    g.g_committing <- true;
    g.g_handoffs <- g.g_handoffs + 1;
    Mutex.unlock g.g_mu;
    leader_loop t g;
    pipeline_loop t g
  end

let start_pipelines t =
  t.pipelines <-
    Array.map (fun g -> Domain.spawn (fun () -> pipeline_loop t g)) t.groups

(* Phase 1 under the group's write mutex: apply to the writer copy, take a
   sequence number and a version, park in the commit queue.  An operation
   that fails part-way (Uid.Overflow once a grown fan-out overflows an
   area's local identifiers) leaves the writer copy, a clone, at its
   previous version.  The document's outcome is the server's overflow
   policy, which the server suite pins: with none of its records pending
   the copy is dropped and the next write re-clones the published one;
   otherwise the document is quarantined like a failed commit. *)
let apply_and_enqueue t (g : group) idx m r2 op ~wait_ns =
  match Wal.apply r2 op with
  | exception Wal.Replay_error msg -> Error msg
  | exception e ->
    let msg = Printexc.to_string e in
    if (published t idx).Snapshot.doc_version >= m.applied_version then
      m.r2 <- None
    else m.wedged <- Some ("an update failed part-way: " ^ msg);
    Error msg
  | area, changed ->
    m.applied_seq <- m.applied_seq + 1;
    let version = 1 + Atomic.fetch_and_add t.last_version 1 in
    m.applied_version <- version;
    let p =
      {
        doc_index = idx;
        record = { Wal.seq = m.applied_seq; op; area; changed };
        version;
        iv = Listener.Ivar.create ();
      }
    in
    Mutex.lock g.g_mu;
    Queue.add p g.g_queue;
    record_wait g.g_lock_wait wait_ns;
    Condition.signal g.g_cond;
    Mutex.unlock g.g_mu;
    Ok p

let run_update t doc op =
  match find_master_idx t doc with
  | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | Some idx -> begin
    (* The slot's group never changes (it is a pure function of the name,
       and revival keeps the name), so it is safe to read before locking. *)
    let g = t.groups.(t.masters.(idx).group) in
    (* Phase 1, under the group's write lock only ({!writer_copy}: a
       writer with records still in the queue keeps its own copy).  While
       the slot holds no writer copy only the membership verbs replace its
       published copy, and they take every group's mutex. *)
    let w0 = Unix.gettimeofday () in
    Mutex.lock g.g_write_mu;
    let wait_ns = (Unix.gettimeofday () -. w0) *. 1e9 in
    let queued =
      Fun.protect ~finally:(fun () -> Mutex.unlock g.g_write_mu)
      @@ fun () ->
      let m = t.masters.(idx) in
      if m.retired then Error (Printf.sprintf "document %S was dropped" doc)
      else
        match m.wedged with
        | Some why ->
          Error
            (Printf.sprintf "document %S is quarantined (%s); %s" doc why
               quarantine_note)
        | None -> apply_and_enqueue t g idx m (writer_copy t idx m) op ~wait_ns
    in
    (* Phase 2: park on the ivar; the group's pipeline folds this record
       into its next batch and fills it after fsync + publication. *)
    match queued with
    | Error msg -> Protocol.Err ("update rejected: " ^ msg)
    | Ok p -> Listener.Ivar.read p.iv
  end

let eval_check s doc =
  match Snapshot.check s doc with
  | () -> Protocol.Ok_ (Printf.sprintf "v=%d consistent" s.Snapshot.version)
  | exception Not_found -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | exception Failure msg -> Protocol.Err ("inconsistent snapshot: " ^ msg)

(* The read verbs over an explicit snapshot: a following node serves them
   through this same code, so a caught-up follower's replies are
   byte-identical to the primary's at the same version. *)
let eval_read ?cache s (req : Protocol.request) =
  match req with
  | Protocol.Count src -> eval_count ?cache s src
  | Protocol.Query src -> eval_query ?cache s src
  | Protocol.Explain src -> eval_explain s src
  | Protocol.Check doc -> eval_check s doc
  | Protocol.Count_doc { doc; xpath } -> eval_count_doc ?cache s doc xpath
  | Protocol.Query_doc { doc; xpath } -> eval_query_doc ?cache s doc xpath
  | Protocol.Docs ->
    let names = Snapshot.doc_names s in
    Protocol.Ok_
      (Printf.sprintf "v=%d docs=%d %s" s.Snapshot.version
         (List.length names) (String.concat " " names))
  | _ -> Protocol.Err "internal: non-read verb reached the read path"

(* --- Replication endpoint ------------------------------------------

   Followers pull: a node serves nothing but its own on-disk artifacts
   (base pair, the live generation's checkpoint pair and archive, the
   live journal) plus a long-poll on journal growth.  A following node
   serves the same verbs from its mirror, so followers chain, and after a
   promotion the chain keeps following the new primary seamlessly — the
   promoted journal continues at the same byte offsets.  All REPL verbs
   run inline on the session thread — a replication connection is
   dedicated, so blocking it in REPL WAIT costs no worker, and the verbs
   stay observable when the admission queue is saturated. *)

let repl_reply t chunk =
  Atomic.incr t.repl_requests;
  ignore
    (Atomic.fetch_and_add t.repl_bytes
       (String.length chunk.Replication.data));
  Protocol.Ok_ (Replication.encode_chunk chunk)

(* The durable sequence: the writer's once the node takes writes (its
   [applied_seq] runs ahead while records are queued); while following,
   the journal holds exactly the applied frames. *)
let durable_seq m =
  match m.wal with Some w -> Wal.seq w | None -> m.applied_seq

let run_repl_state t =
  Atomic.incr t.repl_requests;
  (* live documents only: a retired slot's artifacts are deleted, so a
     follower asking for its files could only be refused *)
  let s_docs =
    Array.to_list t.masters
    |> List.filter_map (fun m ->
           if m.retired then None
           else
             with_mutex m.files_mu @@ fun () ->
             Some
               { Replication.name = m.name; gen = m.gen; seq = durable_seq m;
                 size = Replication.file_size m.wal_path })
  in
  Protocol.Ok_
    (Replication.encode_state
       { Replication.s_epoch = Atomic.get t.epoch;
         s_version = (Atomic.get t.current).Snapshot.version; s_docs })

(* A chunk is bytes of the generation its reply names.  Journal bytes are
   served as they land, before their fsync returns: a follower folds only
   complete checksum-valid frames, and keeps a torn one until the rest
   arrives. *)
let run_repl_file t doc file offset limit =
  match find_master t doc with
  | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | Some m ->
    let path =
      Replication.resolve_path ~xml:m.xml_path ~sidecar:m.sidecar_path
        ~wal:m.wal_path file
    in
    with_mutex m.files_mu @@ fun () ->
    let data, size = Replication.read_chunk path ~offset ~limit in
    repl_reply t { Replication.epoch = Atomic.get t.epoch; gen = m.gen; size; data }

let run_repl_wait t doc want_gen offset timeout_ms =
  match find_master t doc with
  | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | Some m ->
    let deadline =
      Unix.gettimeofday ()
      +. (float_of_int (min timeout_ms Replication.max_wait_ms) /. 1000.)
    in
    let rec loop () =
      let reply =
        with_mutex m.files_mu @@ fun () ->
        let size = Replication.file_size m.wal_path in
        let chunk data =
          Some { Replication.epoch = Atomic.get t.epoch; gen = m.gen; size; data }
        in
        (* rotated past the follower's generation: an empty chunk naming
           the live generation sends it to the archived segment *)
        if m.gen <> want_gen then chunk ""
        else if size > offset then
          chunk
            (fst
               (Replication.read_chunk m.wal_path ~offset
                  ~limit:Replication.max_chunk))
        else if (not (Listener.running t.listener))
                || Unix.gettimeofday () > deadline then chunk ""
        else None
      in
      match reply with
      | Some c -> repl_reply t c
      | None ->
        Thread.delay 0.005;
        loop ()
    in
    loop ()

(* --- Following an upstream -----------------------------------------

   A node started with an upstream mirrors that node's artifacts
   byte for byte.  The invariant everything rests on: each local journal
   holds {e only} checksum-verified complete frames (plus the segment
   header), every one of which has been folded into the document and
   fsynced — so the data directory is at all times indistinguishable from
   a primary's, [ruidtool fsck] passes, and a restart recovers through the
   ordinary {!Wal.replay} path.  The version contract with the primary:
   the global stamp starts at 1 (the startup snapshot) and each update
   advances it by exactly 1, so a caught-up follower publishes the same
   [v=] the primary serves, and replies are byte-identical when the two
   are quiesced at the same point. *)

exception Fenced of { seen : int; got : int }

let local_version t =
  1 + Array.fold_left (fun acc m -> acc + m.applied_seq) 0 t.masters

let pull_stopped t =
  Atomic.get t.pull_stop || not (Listener.running t.listener)

(* Every reply from upstream carries its serving epoch.  Higher: a
   legitimate promotion happened somewhere — raise (and persist) the
   fence.  Lower: a deposed primary is still talking — refuse the bytes,
   count the refusal, and drop the connection.  The fence only ever
   rises. *)
let check_epoch t got =
  let rec go () =
    let seen = Atomic.get t.epoch in
    if got < seen then begin
      Atomic.incr t.refused_epoch;
      raise (Fenced { seen; got })
    end
    else if got > seen then
      if Atomic.compare_and_set t.epoch seen got then
        Replication.store_epoch t.cfg.data_dir got
      else go ()
  in
  go ()

exception Stream_torn  (** injected by the chaos plan: connection died *)

(* Upstream no longer hosts a document it listed in the round's STATE: a
   DROPDOC landed in between.  Not a stream fault — a pull round skips the
   document and keeps the connection, as for a document STATE omits; a
   bootstrap fails as on any other refusal. *)
exception Dropped_upstream of string

let repl_failure what = function
  | Protocol.Ok_ body -> (
    match Replication.decode_chunk body with
    | Ok c -> c
    | Error why -> failwith (Printf.sprintf "%s: bad reply: %s" what why))
  | Protocol.Err m when String.starts_with ~prefix:"unknown document" m ->
    raise (Dropped_upstream (Printf.sprintf "%s: upstream ERR %s" what m))
  | Protocol.Err m -> failwith (Printf.sprintf "%s: upstream ERR %s" what m)
  | Protocol.Busy m -> failwith (Printf.sprintf "%s: upstream BUSY %s" what m)

(* Upstream serves a newer generation than the one a fetch is for: that
   generation's files may be gone already (a rotation trims its family).
   The catch-up step restarts for the newer one on the same connection. *)
exception Rotated of int

(* With [?gen], the chunk must come from that generation: upstream makes
   each reply's (generation, bytes) atomic against its rotations. *)
let fetch_chunk t conn ?gen ~doc ~file ~offset () =
  let req =
    Protocol.Repl_file { doc; file; offset; limit = Replication.max_chunk }
  in
  let c =
    repl_failure (Protocol.request_to_string req) (Client.request conn req)
  in
  check_epoch t c.Replication.epoch;
  (match gen with
  | Some g when c.Replication.gen > g -> raise (Rotated c.Replication.gen)
  | Some g when c.Replication.gen < g ->
    failwith
      (Printf.sprintf "%s: upstream generation %d is behind %d"
         (Protocol.request_to_string req) c.Replication.gen g)
  | _ -> ());
  c

(* The file's bytes as of the first reply's [size] — later growth (an
   active segment under append) is left to the WAIT loop.  A missing file
   reads as empty. *)
let fetch_file t conn ?gen ~doc ~file () =
  let buf = Buffer.create 8192 in
  let rec go offset total =
    if offset >= total then Buffer.contents buf
    else begin
      let c = fetch_chunk t conn ?gen ~doc ~file ~offset () in
      if String.length c.Replication.data = 0 then Buffer.contents buf
      else begin
        Buffer.add_string buf c.Replication.data;
        go (offset + String.length c.Replication.data) total
      end
    end
  in
  let c0 = fetch_chunk t conn ?gen ~doc ~file ~offset:0 () in
  Buffer.add_string buf c0.Replication.data;
  go (String.length c0.Replication.data) c0.Replication.size

let store_atomic path s =
  Ruid.Persist.store_atomic Ruid.Vfs.real ~attempts:5 path
    (Bytes.of_string s)

let get_state t conn =
  match Client.request conn Protocol.Repl_state with
  | Protocol.Ok_ body -> (
    match Replication.decode_state body with
    | Ok st ->
      check_epoch t st.Replication.s_epoch;
      st
    | Error why -> failwith ("REPL STATE: bad reply: " ^ why))
  | Protocol.Err m -> failwith ("REPL STATE: upstream ERR " ^ m)
  | Protocol.Busy m -> failwith ("REPL STATE: upstream BUSY " ^ m)

(* --- Applying the stream --- *)

let append_local m data =
  let fd =
    Unix.openfile m.wal_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let b = Bytes.of_string data in
  let n = Unix.write fd b 0 (Bytes.length b) in
  if n <> Bytes.length b then failwith "short write to local journal";
  Unix.fsync fd

(* Fold decoded frames into the document's writer copy, verifying what
   upstream's renumber records promised — sequence continuity, and that
   the local replay touched the same area and rewrote the same identifier
   count.  Returns the operations and the sequence number reached, which
   the caller publishes.  Any disagreement means divergence: the writer
   copy, which may hold part of the frames, is dropped and the fold
   raises. *)
let fold_entries t idx m entries =
  let r2 = writer_copy t idx m in
  let seq = ref m.applied_seq and ops = ref [] in
  let fold = function
    | Wal.Ckpt c ->
      if c.Wal.base_seq <> !seq then
        failwith
          (Printf.sprintf
             "checkpoint frame of gen %d cut after seq %d, but %d applied \
              locally" c.Wal.gen c.Wal.base_seq !seq)
    | Wal.Records rl ->
      List.iter
        (fun r ->
          if r.Wal.seq <> !seq + 1 then
            failwith
              (Printf.sprintf "sequence break in stream: got %d after %d"
                 r.Wal.seq !seq);
          let area, changed = Wal.apply r2 r.Wal.op in
          if area <> r.Wal.area || changed <> r.Wal.changed then
            failwith
              (Printf.sprintf
                 "divergence at seq %d: local replay renumbered area %d \
                  (%d ids), primary recorded area %d (%d ids)" r.Wal.seq
                 area changed r.Wal.area r.Wal.changed);
          incr seq;
          ops := r.Wal.op :: !ops)
        rl
  in
  match List.iter fold entries with
  | () -> (List.rev !ops, !seq)
  | exception e ->
    m.r2 <- None;
    raise e

(* Journaled frames become visible: one snapshot at the version the
   contract dictates, through the commit pipelines' publication step.
   Stream publications are not commit batches and stay out of the write
   counters.  An [advance] that raises quarantines the document as a
   failed commit does: its stream stops being folded, and it stays served
   at its last published version. *)
let publish_stream t idx m ~seq ops =
  m.applied_seq <- seq;
  if ops <> [] && m.wedged = None then begin
    let version = local_version t in
    m.applied_version <- version;
    match advance_current t ~floor:version [ (idx, ops, version) ] with
    | _ -> ()
    | exception e ->
      m.wedged <- Some ("publication failed: " ^ Printexc.to_string e)
  end

let segment_header_ok s =
  String.length s >= Wal.header_length
  && (let magic = String.sub s 0 4 in
      magic = "RWAL" || magic = "RWAC")
  && s.[4] = '\x02'

(* Drain the complete-frame prefix of [m.tail]: append it to the local
   journal (fsynced), fold it into the writer copy, publish.  The fsync
   comes first so that it overlaps the upstream's own: a follower then
   publishes about when its upstream acknowledges (on a 2-vCPU VM, E17's
   lag p50 read 0.0 ms this way and 2.6 ms folding first).  Frames that do not fold are
   journaled already, and re-fetching them cannot change that: the
   document is quarantined, as for a publication that raises.  A trailing
   torn frame just stays in [tail] until its continuation bytes arrive —
   torn-stream resumption in one place. *)
let drain t idx m =
  let pos = if m.size = 0 then Wal.header_length else 0 in
  if m.size = 0 && String.length m.tail >= Wal.header_length
     && not (segment_header_ok m.tail)
  then failwith "stream does not begin with a v2 journal header";
  if String.length m.tail > pos then begin
    let entries, consumed, corrupt =
      Wal.decode_stream (Bytes.of_string m.tail) ~pos
    in
    Option.iter (fun why -> failwith ("corrupt frame in stream: " ^ why))
      corrupt;
    if consumed > 0 && (entries <> [] || m.size = 0) then begin
      append_local m (String.sub m.tail 0 consumed);
      m.tail <- String.sub m.tail consumed (String.length m.tail - consumed);
      m.size <- m.size + consumed;
      match fold_entries t idx m entries with
      | ops, seq -> publish_stream t idx m ~seq ops
      | exception e ->
        m.wedged <- Some ("stream diverged: " ^ Printexc.to_string e)
    end
  end

(* Chaos hook for the fault-injection tests: a plan may truncate a chunk
   at a random byte — the prefix is kept (exactly what a torn TCP stream
   delivers) and the connection is declared dead. *)
let chaos_data t m data =
  match t.chaos with
  | None -> data
  | Some plan -> (
    match Fault.torn_stream plan data with
    | None -> data
    | Some kept ->
      m.tail <- m.tail ^ kept;
      raise Stream_torn)

(* --- Generation install and rotation catch-up --- *)

(* One generation of an upstream document, fetched whole: the
   complete-frame prefix of its active segment and the frames in it, its
   checkpoint pair (from generation 1 on), and the archive of the segment
   it replaced when upstream holds one. *)
type generation = {
  number : int;
  segment : string;
  frames : Wal.entry list;
  pair : (string * string) option;
  archive : string option;
}

let fetch_generation t conn ~doc ~gen ~archive =
  let fetch file = fetch_file t conn ~gen ~doc ~file () in
  let fail fmt =
    Printf.ksprintf
      (fun m -> failwith (Printf.sprintf "%s gen %d: %s" doc gen m))
      fmt
  in
  let bytes = fetch Protocol.Active_wal in
  if not (segment_header_ok bytes) then fail "segment has no v2 header";
  let entries, consumed, corrupt =
    Wal.decode_stream (Bytes.of_string bytes) ~pos:Wal.header_length
  in
  Option.iter (fail "segment corrupt: %s") corrupt;
  (* The segment names its own generation (the checkpoint frame a rotated
     segment opens with), and the frame vouches for the pair's bytes. *)
  let named = match entries with Wal.Ckpt c :: _ -> Some c | _ -> None in
  let pair =
    match named with
    | None when gen = 0 -> None
    | Some c when c.Wal.gen = gen ->
      let x = fetch (Protocol.Ckpt_xml gen)
      and s = fetch (Protocol.Ckpt_sidecar gen) in
      if Ruid.Crc32.string x <> c.Wal.xml_crc
         || Ruid.Crc32.string s <> c.Wal.sidecar_crc
      then fail "checkpoint pair fails its checkpoint frame's checksums";
      Some (x, s)
    | _ -> fail "segment names another generation"
  in
  let archive =
    if archive && gen > 0 then
      match fetch (Protocol.Segment gen) with "" -> None | a -> Some a
    else None
  in
  { number = gen; segment = String.sub bytes 0 consumed; frames = entries;
    pair; archive }

(* Install a fetched generation in the rotation's own order: the pair and
   the archive first, at names nothing served refers to yet; then, under
   [files_mu] with [commit] (which moves what is served), the active
   segment by rename — no instant with a torn or empty journal on disk —
   and the trim to the new generation. *)
let store_generation m g ~commit =
  Option.iter
    (fun (x, s) ->
      let cx, cs = Wal.checkpoint_files m.wal_path g.number in
      store_atomic cx x;
      store_atomic cs s)
    g.pair;
  Option.iter (store_atomic (Wal.segment_archive m.wal_path g.number))
    g.archive;
  with_mutex m.files_mu (fun () ->
      store_atomic m.wal_path g.segment;
      commit ();
      Wal.trim m.wal_path ~gen:g.number)

(* The live generation, whichever it is by the time it is fetched. *)
let rec install_generation t conn m ~gen ~commit =
  match fetch_generation t conn ~doc:m.name ~gen ~archive:true with
  | g -> store_generation m g ~commit:(fun () -> commit g)
  | exception Rotated newer -> install_generation t conn m ~gen:newer ~commit

(* What the local files hold, by the ordinary recovery path: the
   numbering, the last applied sequence number, the generation and the
   journal's valid size. *)
let recover m =
  let r =
    Wal.replay ~xml:m.xml_path ~sidecar:m.sidecar_path ~wal:m.wal_path ()
  in
  let j = r.Wal.journal in
  let base_seq, gen =
    match j.Wal.checkpoint with
    | Some c -> (c.Wal.base_seq, c.Wal.gen)
    | None -> (0, 0)
  in
  let applied_seq =
    match List.rev r.Wal.replayed with x :: _ -> x.Wal.seq | [] -> base_seq
  in
  (r.Wal.r2, applied_seq, gen, j.Wal.valid_bytes)

(* More than one generation behind, or nothing upstream to bridge with:
   install the live generation as bootstrap does and hand the recovered
   numbering to the snapshot without a copy. *)
let reinstall t conn idx m ~gen =
  install_generation t conn m ~gen ~commit:(fun g ->
      m.gen <- g.number;
      m.size <- String.length g.segment;
      m.tail <- "");
  let r2, applied_seq, _, _ = recover m in
  (* no new record: the published version already is this state *)
  if applied_seq <> m.applied_seq then begin
    m.applied_seq <- applied_seq;
    let version = local_version t in
    m.r2 <- None;
    m.applied_version <- version;
    Atomic.set t.current
      (Snapshot.rehost (Atomic.get t.current) ~version ~doc_version:version
         ~doc_index:idx r2)
  end

(* Exactly one generation behind: [seg<gen>] is a byte-for-byte copy of
   the segment we mirror a prefix of.  Finish it from there, then take
   the generation's pair and the active prefix, and keep folding the
   stream into the numbering.  [false] when upstream holds no archive to
   bridge with (a follower that reinstalled, an adopted document). *)
let bridge t conn idx m ~gen =
  let archive =
    fetch_file t conn ~gen ~doc:m.name ~file:(Protocol.Segment gen) ()
  in
  if String.length archive < m.size then false
  else begin
    m.tail <- String.sub archive m.size (String.length archive - m.size);
    drain t idx m;
    if m.tail <> "" then failwith "archived segment ends in a torn frame";
    let g = fetch_generation t conn ~doc:m.name ~gen ~archive:false in
    let ops, seq = fold_entries t idx m g.frames in
    store_generation m { g with archive = Some archive } ~commit:(fun () ->
        m.gen <- gen;
        m.size <- String.length g.segment);
    publish_stream t idx m ~seq ops;
    true
  end

(* Upstream rotated past us.  The pairs of the generations in between are
   gone (a rotation keeps one), and walking them cost a copy of the
   document each: bridge one generation, reinstall past more.  A fetch
   that meets a newer generation restarts the step for it on the same
   connection — no reconnect, no back-off. *)
let rec catch_up t conn idx m ~gen =
  if gen > m.gen && m.wedged = None && not (pull_stopped t) then
    match
      if gen = m.gen + 1 && bridge t conn idx m ~gen then ()
      else reinstall t conn idx m ~gen
    with
    | () -> ()
    | exception Rotated newer -> catch_up t conn idx m ~gen:newer

(* --- The pull loop --- *)

(* One mirrored document's share of a pull round: catch up when upstream
   rotated past us, then long-poll the live tail. *)
let pull_doc t conn idx m (u : Replication.doc_state) =
  if u.gen > m.gen then catch_up t conn idx m ~gen:u.gen;
  let offset = m.size + String.length m.tail in
  let req =
    Protocol.Repl_wait
      { doc = m.name; gen = m.gen; offset; timeout_ms = t.cfg.poll_ms }
  in
  let c = repl_failure "REPL WAIT" (Client.request conn req) in
  check_epoch t c.Replication.epoch;
  if m.wedged <> None then ()
  else if c.Replication.gen = m.gen && String.length c.Replication.data > 0
  then begin
    m.tail <- m.tail ^ chaos_data t m c.Replication.data;
    drain t idx m
  end
  else if c.Replication.gen > m.gen then
    catch_up t conn idx m ~gen:c.Replication.gen

let pull_round t conn =
  let st = get_state t conn in
  let upstream m =
    List.find_opt
      (fun (u : Replication.doc_state) -> u.name = m.name)
      st.Replication.s_docs
  in
  (* Lag gauges over the mirrored documents only: records and journal
     bytes upstream holds that this node has not applied.  The upstream's
     version stamp also counts ADDDOC/DROPDOC and documents this node
     does not mirror, so it is not compared. *)
  let lag_versions, lag_bytes =
    Array.fold_left
      (fun (versions, bytes) m ->
        match upstream m with
        | None -> (versions, bytes)
        | Some u ->
          let unread =
            if u.gen = m.gen then
              max 0 (u.size - m.size - String.length m.tail)
            else u.size
          in
          (versions + max 0 (u.seq - m.applied_seq), bytes + unread))
      (0, 0) t.masters
  in
  Atomic.set t.lag_versions lag_versions;
  Atomic.set t.lag_bytes lag_bytes;
  Array.iteri
    (fun idx m ->
      match upstream m with
      | None ->
        (* Dropped upstream.  A follower mirrors the document set fixed at
           bootstrap and does not follow membership changes: the last
           mirrored copy stays served, and the rest of the array is still
           polled. *)
        ()
      | Some _ when pull_stopped t || m.wedged <> None -> ()
      | Some u -> (
        (* dropped between STATE and this document's turn: same case *)
        try pull_doc t conn idx m u with Dropped_upstream _ -> ()))
    t.masters

(* Bounded exponential backoff between reconnect attempts: 50 ms doubling
   to a 2 s cap, parked on the wake pipe so that promotion and stop end it
   at once. *)
let backoff_delay t attempt =
  let ms = min 2_000 (50 * (1 lsl min attempt 5)) in
  match t.wake with
  | Some (r, _) when not (pull_stopped t) -> (
    try ignore (Unix.select [ r ] [] [] (float_of_int ms /. 1000.))
    with Unix.Unix_error (Unix.EINTR, _, _) -> ())
  | _ -> ()

(* Called once the puller's stop condition holds.  The byte is never
   read: every later back-off returns at once, and the puller exits. *)
let wake_puller t =
  match t.wake with
  | Some (_, w) -> (
    try ignore (Unix.single_write_substring w "w" 0 1)
    with Unix.Unix_error _ -> ())
  | None -> ()

let close_wake t =
  Option.iter
    (fun (r, w) ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ r; w ])
    t.wake

let puller t upstream =
  let attempt = ref 0 in
  while not (pull_stopped t) do
    match
      Client.with_connection upstream @@ fun conn ->
      while not (pull_stopped t) do
        pull_round t conn;
        attempt := 0
      done
    with
    | () -> ()
    | exception _ when pull_stopped t -> ()
    | exception _ ->
      (* torn stream, upstream restart, fencing, divergence: drop the
         connection, back off, reconnect, resume from the durable local
         offset (plus any buffered tail) — the stream is idempotent by
         byte position. *)
      Atomic.incr t.reconnects;
      backoff_delay t !attempt;
      incr attempt
  done

(* --- Promotion -----------------------------------------------------

   Stop following, bump the fence, take writes.  Ordering matters: the
   puller is joined {e before} the epoch rises, so no frame from the old
   primary can interleave with locally accepted writes; the epoch is
   persisted before the first write is accepted, so a crash right after
   promotion still restarts above the old primary's fence.  The writers
   open at the mirrored offsets, the version counter resumes the
   contract's [1 + Σ seq], and the commit pipelines start: from here on
   the node is a primary in every respect. *)

let promote t =
  with_mutex t.promote_mu @@ fun () ->
  match Atomic.get t.role with
  | `Primary ->
    Protocol.Err
      "PROMOTE: this node is a primary, not a replica (already accepting \
       writes)"
  | `Promoted ->
    Protocol.Ok_
      (Printf.sprintf "epoch=%d role=promoted already=1" (Atomic.get t.epoch))
  | `Following ->
    Atomic.set t.pull_stop true;
    wake_puller t;
    Option.iter Thread.join t.puller;
    t.puller <- None;
    let e = Atomic.get t.epoch + 1 in
    Atomic.set t.epoch e;
    Replication.store_epoch t.cfg.data_dir e;
    Array.iter
      (fun m ->
        (* buffered torn bytes die with the old primary *)
        m.tail <- "";
        m.wal <- Some (Wal.open_append m.wal_path))
      t.masters;
    let v = local_version t in
    Atomic.set t.last_version v;
    start_pipelines t;
    Atomic.set t.role `Promoted;
    Protocol.Ok_ (Printf.sprintf "epoch=%d role=promoted v=%d" e v)

(* The node's part of a graceful stop, run by the listener once every
   session is joined; the puller sees the listener stopping and exits. *)
let teardown t () =
  wake_puller t;
  Option.iter Thread.join t.puller;
  close_wake t;
  (* drain the admitted queues, park the workers and the domains *)
  Pool.shutdown t.sched;
  Option.iter Pool.shutdown t.exec;
  (* Stop the commit pipelines — only now: until every session and worker
     is joined, a writer may still be parked on an ivar only a live
     pipeline can fill.  By here the queues are provably empty (each
     queued record's session was joined, which required its ack, which a
     pipeline only issues after the batch's fsync), so the domains exit at
     once. *)
  Array.iter
    (fun g ->
      Mutex.lock g.g_mu;
      g.g_stop <- true;
      Condition.broadcast g.g_cond;
      Mutex.unlock g.g_mu)
    t.groups;
  Array.iter Domain.join t.pipelines
  (* The WAL needs no flush — every batch was fsynced at commit.  The
     files are final. *)

let stop t = Listener.stop t.listener
let wait t = Listener.wait t.listener

(* --- Collection membership (ADDDOC / ADOPT / DROPDOC) --------------

   Documents arrive and leave at runtime: streamed ingest adds fresh
   documents, rebalance adopts a document shipped from another shard and
   drops the source copy.  All three mutate [masters] and publish a
   snapshot outside the commit pipelines, so they run with {e every}
   group's write lock held AND every commit queue quiesced: no enqueued
   update can be awaiting publication while we swap the membership under
   the pipelines' feet, and no pipeline can be mid-publication (its CAS
   would clobber, or be clobbered by, the membership's [Atomic.set]).  The
   quiesce loop releases the write locks while any pipeline is draining —
   a failed commit's quarantine takes its group's write lock, so holding
   them while waiting would deadlock. *)

let with_quiesced t f =
  let lock_all () =
    Array.iter (fun g -> Mutex.lock g.g_write_mu) t.groups
  and unlock_all () =
    Array.iter (fun g -> Mutex.unlock g.g_write_mu) t.groups
  in
  let rec go () =
    lock_all ();
    let busy =
      Array.exists
        (fun g ->
          Mutex.lock g.g_mu;
          let b = g.g_committing || not (Queue.is_empty g.g_queue) in
          Mutex.unlock g.g_mu;
          b)
        t.groups
    in
    if busy then begin
      unlock_all ();
      Thread.delay 0.001;
      go ()
    end
    else Fun.protect ~finally:unlock_all f
  in
  go ()

(* A name holding ".wal.ckpt" is refused: document [x.wal.ckpt1] would
   keep its base pair at [x.wal.ckpt1.xml]/[.ruid], which document [x]'s
   journal family counts as a checkpoint pair and deletes on a trim. *)
let valid_doc_name name =
  let reserved = ".wal.ckpt" in
  let n = String.length reserved in
  let rec reserved_at i =
    i + n <= String.length name
    && (String.sub name i n = reserved || reserved_at (i + 1))
  in
  name <> "" && name.[0] <> '.'
  && String.for_all (fun c -> c > ' ' && c <> '/') name
  && not (reserved_at 0)

let master_paths t name =
  let base = Filename.concat t.cfg.data_dir name in
  (base ^ ".xml", base ^ ".ruid", base ^ ".wal")

(* A document's record, without a writer copy: with a journal writer,
   sequenced and served from where the journal stands; without one (a
   mirror), at zero until the mirror is recovered. *)
let new_master t ~name ~wal ~version =
  let xml_path, sidecar_path, wal_path = master_paths t name in
  { name; group = Shard_map.hash ~shards:(Array.length t.groups) name;
    retired = false; r2 = None; wal;
    applied_seq = Option.fold ~none:0 ~some:Wal.seq wal;
    applied_version = version; wedged = None;
    xml_path; sidecar_path; wal_path; files_mu = Mutex.create ();
    gen = Option.fold ~none:0 ~some:Wal.generation wal;
    size = 0; tail = "" }

(* Register a master + publish the document.  Caller holds the quiesced
   write locks (all groups).  The freshly built or recovered numbering is
   handed to the snapshot as is ({!Snapshot.host}, no copy); the master
   starts without a writer copy.  A name mapping to a retired slot is
   revived in place — the commit queues are empty, so no pending record
   can reference the old master being replaced.  Publication is a plain
   [Atomic.set]: quiescence guarantees no pipeline is racing a CAS. *)
let install_master t ~name ~r2 ~wal =
  let version = 1 + Atomic.fetch_and_add t.last_version 1 in
  let m = new_master t ~name ~wal:(Some wal) ~version in
  let next, idx =
    match
      Snapshot.host (Atomic.get t.current) ~planner:t.planner_shared ~version
        [ (name, r2) ]
    with
    | next, [ idx ] -> (next, idx)
    | _ -> assert false
  in
  if idx = Array.length t.masters then
    t.masters <- Array.append t.masters [| m |]
  else begin
    (* revival of a retired slot: replace the array so a concurrent reader
       of the old array never observes a half-written record *)
    let grown = Array.copy t.masters in
    grown.(idx) <- m;
    t.masters <- grown
  end;
  Mutex.lock t.catalog_mu;
  Hashtbl.replace t.catalog name idx;
  Mutex.unlock t.catalog_mu;
  Atomic.set t.current next;
  version

let append_to_file path bytes =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc bytes

(* Shared tail of ADDDOC and the committing ADDCHUNK: the streaming build
   already parsed and numbered the document in one pass; persist it and
   publish under quiescence. *)
let install_built t ~verb name (b : Ruid.Stream_build.built) =
  with_quiesced t @@ fun () ->
  if find_master_idx t name <> None then
    Protocol.Err (Printf.sprintf "%s: duplicate document %S" verb name)
  else begin
    let r2 = b.Ruid.Stream_build.r2 in
    let xml_path, sidecar_path, wal_path = master_paths t name in
    Ruid.Persist.save r2 ~xml:xml_path ~sidecar:sidecar_path;
    let wal = Wal.create wal_path in
    let version = install_master t ~name ~r2 ~wal in
    Protocol.Ok_
      (Printf.sprintf "doc=%s nodes=%d v=%d" name
         b.Ruid.Stream_build.stats.Ruid.Stream_build.nodes version)
  end

let run_add_doc t name xml =
  if not (valid_doc_name name) then
    Protocol.Err (Printf.sprintf "ADDDOC: bad document name %S" name)
  else
    match
      Ruid.Stream_build.of_string ~max_depth:t.cfg.max_depth
        ~max_area_size:t.cfg.max_area_size xml
    with
    | exception e ->
      Protocol.Err
        (Printf.sprintf "ADDDOC: unparsable XML for %S: %s" name
           (Printexc.to_string e))
    | b -> install_built t ~verb:"ADDDOC" name b

(* ADDCHUNK spooling: a document too large for one protocol frame arrives
   as ordered chunks that accumulate in a dot-prefixed spool file; the
   committing chunk streams the spool through the same single-pass build
   as ADDDOC (Stream_build.of_file — the source text is never resident).
   An offset mismatch discards the spool so a confused client restarts
   from zero instead of silently corrupting the document. *)

let addchunk_spool_path t doc =
  Filename.concat t.cfg.data_dir (".addchunk." ^ doc ^ ".xml")

let run_add_chunk t doc off last bytes =
  if not (valid_doc_name doc) then
    Protocol.Err (Printf.sprintf "ADDCHUNK: bad document name %S" doc)
  else begin
    Mutex.lock t.adopt_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.adopt_mu) @@ fun () ->
    let spool = addchunk_spool_path t doc in
    let spooled =
      match Unix.stat spool with
      | st -> st.Unix.st_size
      | exception Unix.Unix_error _ -> 0
    in
    if off = 0 && spooled > 0 then Sys.remove spool;
    if off <> 0 && off <> spooled then begin
      (try Sys.remove spool with Sys_error _ -> ());
      Protocol.Err
        (Printf.sprintf
           "ADDCHUNK: offset %d does not match spooled %d bytes for %S; \
            spool discarded, restart from offset 0"
           off spooled doc)
    end
    else begin
      match append_to_file spool bytes with
      | exception Sys_error msg ->
        (try Sys.remove spool with Sys_error _ -> ());
        Protocol.Err ("ADDCHUNK: spooling failed: " ^ msg)
      | () ->
        if not last then
          Protocol.Ok_
            (Printf.sprintf "doc=%s off=%d" doc (off + String.length bytes))
        else begin
          let finally () = try Sys.remove spool with Sys_error _ -> () in
          Fun.protect ~finally @@ fun () ->
          match
            Ruid.Stream_build.of_file ~max_depth:t.cfg.max_depth
              ~max_area_size:t.cfg.max_area_size spool
          with
          | exception e ->
            Protocol.Err
              (Printf.sprintf "ADDCHUNK: unparsable XML for %S: %s" doc
                 (Printexc.to_string e))
          | b -> install_built t ~verb:"ADDCHUNK" doc b
        end
    end
  end

(* ADOPT staging: chunks accumulate in dot-prefixed files (invisible to
   document-name rules) until the committing chunk arrives; then the
   staged artifacts are renamed into place, the journal is replayed over
   them exactly as a restart would, and the document goes live.  Every
   failure before the final rename sequence leaves the data dir without
   the document, staging removed — the source still owns it. *)

let adopt_stage_path t doc file =
  let kind =
    String.map (fun c -> if c = ':' then '@' else c)
      (Protocol.repl_file_to_string file)
  in
  Filename.concat t.cfg.data_dir
    (Printf.sprintf ".adopt.%s.%s" doc kind)

let adopt_target_path t doc file =
  let xml, sidecar, wal = master_paths t doc in
  Replication.resolve_path ~xml ~sidecar ~wal file

let adopt_cleanup t doc =
  let prefix = ".adopt." ^ doc ^ "." in
  Array.iter
    (fun f ->
      if String.length f > String.length prefix
         && String.sub f 0 (String.length prefix) = prefix then
        try Sys.remove (Filename.concat t.cfg.data_dir f)
        with Sys_error _ -> ())
    (try Sys.readdir t.cfg.data_dir with Sys_error _ -> [||])

let adopt_staged_files t doc =
  let prefix = ".adopt." ^ doc ^ "." in
  Array.to_list (try Sys.readdir t.cfg.data_dir with Sys_error _ -> [||])
  |> List.filter_map (fun f ->
         if String.length f > String.length prefix
            && String.sub f 0 (String.length prefix) = prefix then
           let kind =
             String.map
               (fun c -> if c = '@' then ':' else c)
               (String.sub f (String.length prefix)
                  (String.length f - String.length prefix))
           in
           match Protocol.parse_repl_file kind with
           | Ok file -> Some (Filename.concat t.cfg.data_dir f, file)
           | Error _ -> None
         else None)

let commit_adopt t doc =
  let staged = adopt_staged_files t doc in
  let has f = List.exists (fun (_, file) -> file = f) staged in
  if not (has Protocol.Base_xml && has Protocol.Base_sidecar) then begin
    adopt_cleanup t doc;
    Protocol.Err "ADOPT: staged set is missing the base xml/ruid pair"
  end
  else
    with_quiesced t @@ fun () ->
    if find_master_idx t doc <> None then begin
      adopt_cleanup t doc;
      Protocol.Err (Printf.sprintf "ADOPT: duplicate document %S" doc)
    end
    else begin
      List.iter
        (fun (path, file) -> Sys.rename path (adopt_target_path t doc file))
        staged;
      let xml_path, sidecar_path, wal_path = master_paths t doc in
      match
        Wal.replay ~xml:xml_path ~sidecar:sidecar_path ~wal:wal_path ()
      with
      | exception e ->
        (* the artifacts are exactly what the source shipped; leave them
           for diagnosis but do not host the document *)
        List.iter
          (fun (_, file) ->
            try Sys.remove (adopt_target_path t doc file) with Sys_error _ -> ())
          staged;
        Protocol.Err
          (Printf.sprintf "ADOPT: staged artifacts do not replay: %s"
             (Printexc.to_string e))
      | recovery ->
        let wal = Wal.open_append wal_path in
        let version = install_master t ~name:doc ~r2:recovery.Wal.r2 ~wal in
        Protocol.Ok_
          (Printf.sprintf "doc=%s seq=%d gen=%d v=%d" doc (Wal.seq wal)
             (Wal.generation wal) version)
    end

let run_adopt t doc file last bytes =
  if not (valid_doc_name doc) then
    Protocol.Err (Printf.sprintf "ADOPT: bad document name %S" doc)
  else begin
    Mutex.lock t.adopt_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.adopt_mu) @@ fun () ->
    match append_to_file (adopt_stage_path t doc file) bytes with
    | exception Sys_error msg ->
      adopt_cleanup t doc;
      Protocol.Err ("ADOPT: staging failed: " ^ msg)
    | () ->
      if not last then
        Protocol.Ok_ (Printf.sprintf "doc=%s staged=%d" doc (String.length bytes))
      else commit_adopt t doc
  end

let run_adopt_abort t doc =
  if not (valid_doc_name doc) then
    Protocol.Err (Printf.sprintf "ADOPTABORT: bad document name %S" doc)
  else begin
    Mutex.lock t.adopt_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.adopt_mu) @@ fun () ->
    adopt_cleanup t doc;
    Protocol.Ok_ (Printf.sprintf "doc=%s aborted" doc)
  end

let run_drop_doc t doc =
  with_quiesced t @@ fun () ->
  match find_master_idx t doc with
  | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | Some idx ->
    let m = t.masters.(idx) in
    m.retired <- true;
    m.r2 <- None;
    let version = 1 + Atomic.fetch_and_add t.last_version 1 in
    let next =
      Snapshot.retire_doc (Atomic.get t.current) ~version ~doc_index:idx
    in
    Atomic.set t.current next;
    (* Delete the artifacts: the document moved; a crash-restart of this
       shard must not resurrect a stale copy.  The journal's whole segment
       family (active segment, checkpoint pairs, archives) is enumerated
       rather than guessed from the live generation. *)
    List.iter
      (fun (_, path) -> try Sys.remove path with Sys_error _ -> ())
      (Wal.family m.wal_path);
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ m.xml_path; m.sidecar_path ];
    Protocol.Ok_ (Printf.sprintf "doc=%s dropped v=%d" doc version)

(* Verb dispatch; the listener answers PING, STATS and SHUTDOWN itself.
   A following node takes no writes: UPDATE and the membership verbs are
   refused until PROMOTE — collection membership is the primary's to
   change, and it replicates through the journal and file shipping like
   any other write. *)
let dispatch t (req : Protocol.request) =
  match req with
  (* Reads go to the parallel executor when one is configured: they only
     touch domain-safe state (the immutable snapshot, the sharded cache).
     UPDATE (and the testing verb SLEEP) stays on the systhread pool of
     the main domain — the WAL + write-mutex path. *)
  | Protocol.Query _ | Protocol.Count _ | Protocol.Explain _
  | Protocol.Check _ | Protocol.Query_doc _ | Protocol.Count_doc _ ->
    Listener.Queued
      ( Option.value t.exec ~default:t.sched,
        fun () -> eval_read ?cache:t.cache (Atomic.get t.current) req )
  | Protocol.Update _ when following t ->
    Listener.Inline
      (fun () ->
        Protocol.Err
          "read-only replica: writes go to the primary (PROMOTE to fail over)")
  | Protocol.Update { doc; op } ->
    Listener.Queued (t.sched, fun () -> run_update t doc op)
  | Protocol.Sleep ms ->
    Listener.Queued
      ( t.sched,
        fun () ->
          Thread.delay (float_of_int ms /. 1000.);
          Protocol.Ok_ (Printf.sprintf "slept=%d" ms) )
  (* Every other verb runs inline on the session thread.  DOCS is a
     control verb: it must stay observable when the queue is saturated. *)
  | Protocol.Docs ->
    Listener.Inline (fun () -> eval_read (Atomic.get t.current) req)
  (* The replication verbs are control verbs too: a follower's pull must
     keep draining even when the admission queue is saturated, and a
     REPL WAIT long-poll may hold its (dedicated) session thread without
     costing a worker. *)
  | Protocol.Repl_state -> Listener.Inline (fun () -> run_repl_state t)
  | Protocol.Repl_file { doc; file; offset; limit } ->
    Listener.Inline (fun () -> run_repl_file t doc file offset limit)
  | Protocol.Repl_wait { doc; gen; offset; timeout_ms } ->
    Listener.Inline (fun () -> run_repl_wait t doc gen offset timeout_ms)
  | Protocol.Promote -> Listener.Inline (fun () -> promote t)
  | ( Protocol.Add_doc _ | Protocol.Add_chunk _ | Protocol.Adopt _
    | Protocol.Adopt_abort _ | Protocol.Drop_doc _ )
    when following t ->
    Listener.Inline
      (fun () ->
        Protocol.Err (Protocol.verb req ^ ": this node is a read-only replica"))
  (* Collection membership runs inline too: ingest and rebalance use
     dedicated connections (blocking one costs no worker), and the verbs
     must stay available while the admission queue is saturated — a
     rebalance is often the cure for the saturation. *)
  | Protocol.Add_doc { doc; xml } ->
    Listener.Inline (fun () -> run_add_doc t doc xml)
  | Protocol.Add_chunk { doc; off; last; bytes } ->
    Listener.Inline (fun () -> run_add_chunk t doc off last bytes)
  | Protocol.Adopt { doc; file; last; bytes } ->
    Listener.Inline (fun () -> run_adopt t doc file last bytes)
  | Protocol.Adopt_abort doc ->
    Listener.Inline (fun () -> run_adopt_abort t doc)
  | Protocol.Drop_doc doc -> Listener.Inline (fun () -> run_drop_doc t doc)
  | Protocol.Rebalance _ ->
    Listener.Inline
      (fun () ->
        Protocol.Err
          (Printf.sprintf "REBALANCE: this node is a %s; connect to the router"
             (if following t then "replica" else "shard")))
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown ->
    Listener.Inline
      (fun () -> Protocol.Err "internal: node verb reached the service")

(* ------------------------------------------------------------------ *)
(* Startup                                                             *)
(* ------------------------------------------------------------------ *)

let ensure_dir d =
  if not (Sys.file_exists d) then Unix.mkdir d 0o755
  else if not (Sys.is_directory d) then
    invalid_arg (Printf.sprintf "%s exists and is not a directory" d)

(* The node without its documents: front end, pools, commit groups. *)
let create ?chaos cfg =
  let epoch =
    match cfg.upstream with
    | None -> cfg.epoch
    | Some _ -> Replication.load_epoch cfg.data_dir
  in
  let metrics = Metrics.create () in
  let listener =
    Listener.create ~deadline_ms:cfg.deadline_ms ~metrics cfg.socket_path
  in
  let on_exn ~label e = Metrics.record_dropped metrics ~verb:label e in
  let max_queue =
    resolved_max_queue ~max_queue:cfg.max_queue ~workers:cfg.workers
      ~domains:cfg.domains
  in
  let sched =
    Pool.create ~on_exn ~kind:`Threads ~workers:cfg.workers ~max_queue ()
  in
  let exec =
    if cfg.domains = 0 then None
    else
      Some
        (Pool.create ~on_exn ~kind:`Domains ~workers:cfg.domains ~max_queue ())
  in
  let cache =
    if cfg.cache_mb = 0 then None
    else
      (* ~1 KiB budgeted per entry: answers are counts plus at most
         [id_cap] identifiers, so the byte cap binds first only for
         unusually long query strings. *)
      Some
        (Query_cache.create ~max_entries:(cfg.cache_mb * 1024)
           ~max_bytes:(cfg.cache_mb * 1024 * 1024) ())
  in
  {
    cfg;
    masters = [||];
    catalog = Hashtbl.create 16;
    catalog_mu = Mutex.create ();
    adopt_mu = Mutex.create ();
    planner_shared = Rxpath.Planner.make_shared ~plan_cache:cfg.plan_cache ();
    current = Atomic.make (Snapshot.capture ~version:1 []);
    groups =
      Array.init (resolved_commit_groups cfg) (fun g_id ->
          { g_id;
            g_write_mu = Mutex.create ();
            g_mu = Mutex.create ();
            g_cond = Condition.create ();
            g_queue = Queue.create ();
            g_committing = false;
            g_stop = false;
            g_writes =
              { w_batches = 0; w_records = 0; w_max_batch = 0;
                w_flush_ns = 0.; w_pub_inc = 0; w_areas = 0;
                w_rotations = 0; w_rotation_failures = 0 };
            g_handoffs = 0;
            g_lock_wait = Array.make Metrics.hist_buckets 0;
            g_fsync_wait = Array.make Metrics.hist_buckets 0;
          });
    pipelines = [||];
    last_version = Atomic.make 1;
    epoch = Atomic.make epoch;
    role =
      Atomic.make
        (match cfg.upstream with None -> `Primary | Some _ -> `Following);
    promote_mu = Mutex.create ();
    pull_stop = Atomic.make false;
    puller = None;
    wake = Option.map (fun _ -> Unix.pipe ~cloexec:true ()) cfg.upstream;
    chaos;
    reconnects = Atomic.make 0;
    refused_epoch = Atomic.make 0;
    lag_versions = Atomic.make 0;
    lag_bytes = Atomic.make 0;
    repl_requests = Atomic.make 0;
    repl_bytes = Atomic.make 0;
    sched;
    exec;
    cache;
    metrics;
    listener;
  }

(* Publish the first snapshot: each numbering handed to it as it is (the
   snapshot owns them; a master clones its own on the document's first
   write), every cursor at [version]. *)
let host_all t named ~version =
  t.masters <- Array.of_list (List.map fst named);
  Array.iteri
    (fun i m ->
      m.applied_version <- version;
      Hashtbl.replace t.catalog m.name i)
    t.masters;
  let snap, _ =
    Snapshot.host (Snapshot.capture ~version []) ~planner:t.planner_shared
      ~version
      (List.map (fun (m, r2) -> (m.name, r2)) named)
  in
  Atomic.set t.current snap;
  Atomic.set t.last_version version

(* A primary's documents: numbered, persisted, each with a fresh journal;
   version 1 is the startup snapshot's stamp.  Generation 0: an earlier
   run's pairs and archives of the same name describe nothing these
   journals will replay. *)
let host_input t docs =
  Replication.store_epoch t.cfg.data_dir t.cfg.epoch;
  let seen = Hashtbl.create 16 in
  host_all t ~version:1
    (List.map
       (fun (name, root) ->
         if not (valid_doc_name name) then
           invalid_arg
             (Printf.sprintf "Service.start: bad document name %S" name);
         if Hashtbl.mem seen name then
           invalid_arg
             (Printf.sprintf "Service.start: duplicate document name %S" name);
         Hashtbl.replace seen name ();
         let r2 = R2.number ~max_area_size:t.cfg.max_area_size root in
         let xml, sidecar, wal_path = master_paths t name in
         Ruid.Persist.save r2 ~xml ~sidecar;
         let wal = Wal.create wal_path in
         Wal.trim wal_path ~gen:0;
         (new_master t ~name ~wal:(Some wal) ~version:1, r2))
       docs)

(* A follower's documents: the set upstream lists, each mirrored — resumed
   from intact local files when they exist (a restart), otherwise the base
   pair fetched and the live generation installed, as a follower further
   behind than one rotation does.  Either way the document finishes in the
   invariant state: local files a primary-shaped, fsck-clean mirror, the
   numbering the replay of exactly those bytes.  A [Fenced] raised here is
   fatal by design: the configured upstream is provably behind the fence
   this data directory has already seen, and following it would merge a
   deposed primary's writes. *)
let bootstrap t upstream =
  Client.with_connection upstream @@ fun conn ->
  let st = get_state t conn in
  if st.Replication.s_docs = [] then failwith "upstream hosts no documents";
  Atomic.set t.epoch (max 1 (Atomic.get t.epoch));
  Replication.store_epoch t.cfg.data_dir (Atomic.get t.epoch);
  let mirror (u : Replication.doc_state) =
    let m = new_master t ~name:u.name ~wal:None ~version:1 in
    if not (Sys.file_exists m.xml_path && Sys.file_exists m.sidecar_path)
    then begin
      store_atomic m.xml_path
        (fetch_file t conn ~doc:u.name ~file:Protocol.Base_xml ());
      store_atomic m.sidecar_path
        (fetch_file t conn ~doc:u.name ~file:Protocol.Base_sidecar ());
      install_generation t conn m ~gen:u.gen ~commit:ignore
    end
    else
      (* restart: a kill between our append and fsync can leave a torn
         tail; drop it, then replay resumes from the durable prefix *)
      ignore (Wal.repair m.wal_path);
    let r2, applied_seq, gen, size = recover m in
    (* a kill inside an earlier install can leave older members behind *)
    Wal.trim m.wal_path ~gen;
    m.applied_seq <- applied_seq;
    m.gen <- gen;
    m.size <- size;
    (m, r2)
  in
  let named =
    List.map
      (fun u -> try mirror u with Dropped_upstream msg -> failwith msg)
      st.Replication.s_docs
  in
  host_all t named
    ~version:(1 + List.fold_left (fun acc (m, _) -> acc + m.applied_seq) 0 named)

let set_probes t =
  let metrics = t.metrics in
  Metrics.set_queue_probe metrics (fun () ->
      Pool.queue_depth t.sched
      + match t.exec with Some ex -> Pool.queue_depth ex | None -> 0);
  Metrics.set_snapshot_probe metrics (fun () ->
      let s = Atomic.get t.current in
      (s.Snapshot.version, s.Snapshot.published_at));
  (match t.cache with
  | Some c ->
    Metrics.set_cache_probe metrics (fun () ->
        let s = Query_cache.stats c in
        {
          Metrics.hits = s.Query_cache.hits;
          misses = s.Query_cache.misses;
          evictions = s.Query_cache.evictions;
          entries = s.Query_cache.entries;
          bytes = s.Query_cache.bytes;
        })
  | None -> ());
  (match t.exec with
  | Some ex -> Metrics.set_domain_probe metrics (fun () -> Pool.busy_seconds ex)
  | None -> ());
  Metrics.set_planner_probe metrics (fun () ->
      let s = Rxpath.Planner.shared_stats t.planner_shared in
      let hits, misses, evictions, entries =
        match s.Rxpath.Planner.cache_stats with
        | None -> (0, 0, 0, 0)
        | Some c ->
          Rxpath.Plan_cache.
            (c.hits, c.misses, c.evictions, c.entries)
      in
      {
        Metrics.chain = s.Rxpath.Planner.chain;
        twig = s.Rxpath.Planner.twig;
        engine = s.Rxpath.Planner.engine;
        pruned = s.Rxpath.Planner.pruned;
        plan_hits = hits;
        plan_misses = misses;
        plan_evictions = evictions;
        plan_entries = entries;
      });
  (* [wal_*]/[publish_*] keys stay aggregated across groups — every
     existing consumer (tests, benches, dashboards) keeps its totals —
     while the per-group contention detail goes out via the pipeline
     probe.  Every publication is derived, so [publish_full] reads 0. *)
  Metrics.set_write_probe metrics (fun () ->
      let private_masters =
        Array.fold_left
          (fun n m -> if Option.is_some m.r2 then n + 1 else n)
          0 t.masters
      in
      Array.fold_left
        (fun acc g ->
          Mutex.lock g.g_mu;
          let w = g.g_writes in
          let acc =
            {
              acc with
              Metrics.batches = acc.Metrics.batches + w.w_batches;
              records = acc.Metrics.records + w.w_records;
              max_batch = max acc.Metrics.max_batch w.w_max_batch;
              flush_ns = acc.Metrics.flush_ns +. w.w_flush_ns;
              publish_incremental =
                acc.Metrics.publish_incremental + w.w_pub_inc;
              areas_rebuilt = acc.Metrics.areas_rebuilt + w.w_areas;
              rotations = acc.Metrics.rotations + w.w_rotations;
              rotation_failures =
                acc.Metrics.rotation_failures + w.w_rotation_failures;
            }
          in
          Mutex.unlock g.g_mu;
          acc)
        {
          Metrics.batches = 0; records = 0; max_batch = 0; flush_ns = 0.;
          publish_incremental = 0; publish_full = 0; areas_rebuilt = 0;
          rotations = 0; rotation_failures = 0; private_masters;
        }
        t.groups);
  Metrics.set_pipeline_probe metrics (fun () ->
      Array.map
        (fun g ->
          Mutex.lock g.g_mu;
          let s =
            {
              Metrics.gq_depth = Queue.length g.g_queue;
              g_batches = g.g_writes.w_batches;
              g_records = g.g_writes.w_records;
              g_handoffs = g.g_handoffs;
              g_lock_wait = Array.copy g.g_lock_wait;
              g_fsync_wait = Array.copy g.g_fsync_wait;
            }
          in
          Mutex.unlock g.g_mu;
          s)
        t.groups);
  Metrics.set_repl_probe metrics (fun () ->
      {
        Metrics.role =
          (match Atomic.get t.role with
          | `Primary -> "primary"
          | `Following -> "replica"
          | `Promoted -> "promoted");
        epoch = Atomic.get t.epoch;
        served_requests = Atomic.get t.repl_requests;
        served_bytes = Atomic.get t.repl_bytes;
        lag_versions = Atomic.get t.lag_versions;
        lag_bytes = Atomic.get t.lag_bytes;
        last_applied_seq =
          Array.fold_left (fun acc m -> acc + m.applied_seq) 0 t.masters;
        reconnects = Atomic.get t.reconnects;
        refused_epoch = Atomic.get t.refused_epoch;
      })

let start ?chaos cfg docs =
  (match validate_config cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Service.start: " ^ msg));
  if cfg.upstream <> None && docs <> [] then
    invalid_arg "Service.start: a node with an upstream hosts its documents";
  (* An empty collection is a valid start: a shard in the collection
     tier boots bare and is filled by ADDDOC / ADOPT at runtime. *)
  ensure_dir cfg.data_dir;
  let t = create ?chaos cfg in
  (match
     match cfg.upstream with
     | None -> host_input t docs
     | Some upstream -> bootstrap t upstream
   with
  | () -> ()
  | exception e ->
    (* a failed start leaves neither a socket nor a worker behind *)
    Listener.stop t.listener;
    Pool.shutdown t.sched;
    Option.iter Pool.shutdown t.exec;
    close_wake t;
    raise e);
  set_probes t;
  (match cfg.upstream with
  | None -> start_pipelines t
  | Some upstream -> t.puller <- Some (Thread.create (puller t) upstream));
  Listener.serve t.listener ~teardown:(teardown t) (dispatch t);
  t
