module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module Wal = Rstorage.Wal

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
}

let default_config ~socket_path ~data_dir () =
  { socket_path; data_dir; workers = 4; max_queue = 0; deadline_ms = 0;
    max_area_size = 64; max_depth = 10_000; domains = 0; cache_mb = 0;
    commit_interval_us = 0; commit_max_batch = 64; commit_groups = 0;
    wal_segment_bytes = 0; plan_cache = 256; epoch = 1 }

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
      (** the writer's handle, guarded by the group's write mutex and never
          read by readers.  [None] until the document's first UPDATE; each
          UPDATE that finds the published copy caught up takes an O(1)
          clone of it, which shares the published version's tables and
          tree, so a written document stays resident about once *)
  wal : Wal.writer;
  mutable applied_seq : int;
      (** sequence number of the last operation applied to [r2]; runs ahead
          of [Wal.seq wal] while records sit in the commit queue *)
  mutable applied_version : int;
      (** snapshot version of the last operation applied to [r2]; guarded
          by the group's write mutex like [applied_seq] *)
  mutable durable_version : int;
      (** version of the last operation fsynced to [wal]; written and read
          only by the group's commit leader *)
  mutable wedged : string option;
      (** set (under the group's write mutex) when a failed commit left
          this document's journal or published snapshot out of step with
          its master, or an update failed part-way on a master with
          records pending; all further updates are refused until a restart
          replays the journal *)
  xml_path : string;
  sidecar_path : string;
  wal_path : string;
  rotate_mu : Mutex.t;
      (** makes ([Wal.generation], file bytes) reads atomic against
          {!Wal.rotate}: rotation swaps the active file, bumps the
          writer's generation and deletes the previous generation's
          files as separate steps, and it runs on the group's pipeline
          {e domain} — a replication session reading unsynchronized
          could serve new-generation bytes labeled with the old
          generation, which a follower would splice into the wrong
          mirror.  Held only across rotation itself (not the document's
          serialization) and across each replication chunk read, never
          across a wait. *)
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
  mutable w_pub_full : int;
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
          documents; also taken by the full-fallback publication and by
          quarantine, which read masters a writer may be mutating *)
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
      (** one dedicated domain per group, spawned at start, joined at stop;
          written once after construction *)
  last_version : int Atomic.t;
      (** version of the last applied update — the global stamp source,
          shared by every group (fetch-and-add) *)
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

(* Rotate the WAL of every document whose segment outgrew the threshold,
   checkpointing from the just-published snapshot copy — but only when that
   copy is exactly the document's durable prefix: its cursor equals the
   version of the last fsynced record.  A copy that ran ahead through the
   full fallback (queued-but-unfsynced operations captured from the master)
   would checkpoint operations no journal holds yet; such a document just
   skips rotation this round and retries on a later batch.  The snapshot
   copy is already isolated from the master, so serializing it races with
   nothing — and it runs before [rotate_mu] is taken, so replication reads
   wait for the file swap only.  A rotation that raises (a full disk, a
   path it cannot write) left the old segment in force: it is counted and
   retried on a later batch, never reported as a commit failure — the
   batch's records are durable and acknowledged by then. *)
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
        if Wal.should_rotate m.wal ~threshold:t.cfg.wal_segment_bytes then
          match Snapshot.find snap m.name with
          | None -> ()
          | Some (_, d) when d.Snapshot.doc_version <> m.durable_version ->
            ()
          | Some (_, d) -> (
            let r2 = d.Snapshot.r2 in
            let xml = Ruid.Persist.xml_to_bytes r2
            and sidecar = Ruid.Persist.sidecar_to_bytes r2 in
            (* Under [rotate_mu]: rotation swaps the segment file, bumps
               the writer's generation and trims the family as separate
               steps, and we are on the pipeline domain — a replication
               session must never read in between. *)
            Mutex.lock m.rotate_mu;
            match
              Fun.protect ~finally:(fun () -> Mutex.unlock m.rotate_mu)
                (fun () -> Wal.rotate m.wal ~xml ~sidecar)
            with
            | _ -> count (fun w -> w.w_rotations <- w.w_rotations + 1)
            | exception _ ->
              count (fun w ->
                  w.w_rotation_failures <- w.w_rotation_failures + 1)))
      by_doc

let quarantine_reply why =
  Protocol.Err
    (Printf.sprintf
       "update dropped: document quarantined (%s); \
        restart the server to recover from the journal" why)

let commit_batch t (g : group) batch =
  (* A document wedged by an earlier failed commit has a master running
     ahead of its journal: appending for it can only fail again (sequence
     break) and would drag this batch's healthy documents down with it.
     Reject its records up front.  [wedged] is written by this group's
     pipeline and by phase 1 (under the group's write mutex, when an update
     fails part-way), so this unlocked read may miss a quarantine that is
     just being set.  That is harmless: every record taken applied cleanly,
     so journaling and publishing it incrementally is still right, and the
     full fallback re-reads [wedged] under the mutex. *)
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
  (* 1. Durability: one batch frame + one fsync per touched document.
     Groups fsync their disjoint journals concurrently — this is the wait
     the whole refactor parallelizes, so it is also the one we histogram. *)
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (idx, ps) ->
      let m = t.masters.(idx) in
      let d0 = Unix.gettimeofday () in
      Wal.append_batch m.wal (List.map (fun p -> p.record) ps);
      let dns = (Unix.gettimeofday () -. d0) *. 1e9 in
      Mutex.lock g.g_mu;
      record_wait g.g_fsync_wait dns;
      Mutex.unlock g.g_mu;
      m.durable_version <-
        List.fold_left (fun acc p -> max acc p.version) m.durable_version ps)
    by_doc;
  let flush_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  (* 2. Publication, once for the whole batch.  A document's snapshot copy
     can already be ahead of some records here (a previous full-fallback
     publication captured its master mid-queue), so each pending is
     filtered against its own document's cursor — never the global stamp,
     which a publication of {e different} documents may have pushed past
     this record's version — and never applied to a snapshot twice.

     Other groups publish concurrently: the successor is derived from the
     freshly-read current and installed by compare-and-set, retried from
     the new current on a lost race.  The document sets are disjoint, so
     the re-derivation folds exactly the same per-document copies; only
     the stamp is recomputed ({!Snapshot.next_stamp}). *)
  let last_version =
    List.fold_left (fun acc p -> max acc p.version) 0 batch
  in
  let fresh_updates prev =
    List.filter_map
      (fun (idx, ps) ->
        let cursor = prev.Snapshot.docs.(idx).Snapshot.doc_version in
        match List.filter (fun p -> p.version > cursor) ps with
        | [] -> None
        | fresh ->
          let doc_version =
            List.fold_left (fun acc p -> max acc p.version) cursor fresh
          in
          Some (idx, List.map (fun p -> p.record.Wal.op) fresh, doc_version))
      by_doc
  in
  (* Full fallback: re-capture the touched documents from their masters
     through the sidecar round-trip.  Under this group's write mutex the
     masters cannot advance, but they may already be ahead of this batch
     (later arrivals applied during our fsync), so each capture carries
     its own master's applied version as its cursor — those queued records
     are fsynced by this same pipeline before their acks, and the
     per-document filter above keeps them from ever being replayed twice.
     The stamp floor is the max of the captured cursors, never the global
     update counter: a version assigned to some other document's queued
     update must stay strictly above this snapshot's stamp-covered
     range.  A master without a writer copy dropped it after an update
     failed part-way with nothing pending, so its published copy already
     holds every applied operation and stays.  A master quarantined since
     the batch was taken may hold a half-applied operation: it is left
     out, its published copy stays, and only its records that copy lacks
     are refused (the document is returned as [stuck]) — they are
     journaled, so a restart recovers them. *)
  let publish_full () =
    Mutex.lock g.g_write_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock g.g_write_mu)
    @@ fun () ->
    let live, stuck =
      List.partition (fun (idx, _) -> t.masters.(idx).wedged = None) by_doc
    in
    let floor =
      List.fold_left
        (fun acc (idx, _) -> max acc t.masters.(idx).applied_version)
        0 live
    in
    let rec install () =
      let prev = Atomic.get t.current in
      let version = Snapshot.next_stamp prev ~floor in
      let next =
        List.fold_left
          (fun s (idx, _) ->
            let m = t.masters.(idx) in
            match m.r2 with
            | None -> s
            | Some r2 ->
              Snapshot.replace_doc s ~version
                ~doc_version:m.applied_version ~doc_index:idx r2)
          prev live
      in
      if Atomic.compare_and_set t.current prev next then begin
        Mutex.lock g.g_mu;
        g.g_writes.w_pub_full <- g.g_writes.w_pub_full + 1;
        Mutex.unlock g.g_mu;
        next
      end
      else install ()
    in
    (install (), List.map fst stuck)
  in
  let rec publish () =
    let prev = Atomic.get t.current in
    match fresh_updates prev with
    | [] -> (prev, [])
    | updates -> (
      let version = Snapshot.next_stamp prev ~floor:last_version in
      match Snapshot.advance prev ~version updates with
      | next, areas ->
        if Atomic.compare_and_set t.current prev next then begin
          Mutex.lock g.g_mu;
          g.g_writes.w_pub_inc <- g.g_writes.w_pub_inc + 1;
          g.g_writes.w_areas <- g.g_writes.w_areas + areas;
          Mutex.unlock g.g_mu;
          (next, [])
        end
        else publish ()
      | exception _ -> publish_full ())
  in
  let published, stuck = publish () in
  (* 3. Acknowledge: durable and visible. *)
  let n = List.length batch in
  Mutex.lock g.g_mu;
  g.g_writes.w_batches <- g.g_writes.w_batches + 1;
  g.g_writes.w_records <- g.g_writes.w_records + n;
  if n > g.g_writes.w_max_batch then g.g_writes.w_max_batch <- n;
  g.g_writes.w_flush_ns <- g.g_writes.w_flush_ns +. flush_ns;
  Mutex.unlock g.g_mu;
  List.iter
    (fun p ->
      Listener.Ivar.fill p.iv
        (if List.mem p.doc_index stuck
            && p.version > published.Snapshot.docs.(p.doc_index).doc_version
         then
           Protocol.Err
             (Printf.sprintf
                "update journaled but not published: document quarantined \
                 (%s); restart the server to recover from the journal"
                (Option.value ~default:"unknown"
                   t.masters.(p.doc_index).wedged))
         else
           Protocol.Ok_
             (Printf.sprintf "v=%d seq=%d area=%d changed=%d batch=%d"
                p.version p.record.Wal.seq p.record.Wal.area
                p.record.Wal.changed n)))
    batch;
  (* 4. Segment rotation; [maybe_rotate] skips any document whose published
     copy is not exactly its durable prefix. *)
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
       (* Never strand a writer: a failed commit (I/O error mid-batch)
          reports to every parked session rather than hanging them.  The
          records' durability is unknown; the error says so.  And never let
          a half-committed document keep taking writes: a master whose
          applied state ran ahead of its journal would reject every later
          append with a sequence break (write-wedged until restart), and
          one that ran ahead of the published snapshot would have later
          incremental publications replay onto a base that silently misses
          these records.  Such documents are quarantined — updates refused
          explicitly — until a restart re-derives state from the journal.
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
             m.applied_seq = Wal.seq m.wal
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

(* Slot [idx] of the current snapshot. *)
let published t idx = (Atomic.get t.current).Snapshot.docs.(idx)

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
    (* Phase 1, under the group's write lock only.  A writer whose
       published copy already holds every operation it applied takes a
       fresh O(1) clone of the published numbering, so the two share every
       table and the tree and the document stays resident about once; a
       writer with records still in the queue keeps its own copy.  While
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
        match (m.wedged, m.r2) with
        | Some why, _ ->
          Error
            (Printf.sprintf
               "document %S is quarantined (%s); \
                restart the server to recover from the journal" doc why)
        | None, Some r2
          when (published t idx).Snapshot.doc_version < m.applied_version ->
          apply_and_enqueue t g idx m r2 op ~wait_ns
        | None, _ ->
          let c = R2.clone (published t idx).Snapshot.r2 in
          m.r2 <- Some c;
          apply_and_enqueue t g idx m c op ~wait_ns
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

(* The read verbs over an explicit snapshot: the replica serves them
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

(* The service's part of a graceful stop, run by the listener once every
   session is joined. *)
let teardown t () =
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

(* --- Replication endpoint ------------------------------------------

   Followers pull: the primary serves nothing but its own on-disk
   artifacts (base pair, checkpoint pairs, archived segments, the live
   journal) plus a long-poll on journal growth.  All REPL verbs run inline
   on the session thread — a replication connection is dedicated, so
   blocking it in REPL WAIT costs no worker, and the verbs stay observable
   when the admission queue is saturated. *)

let repl_reply t chunk =
  Atomic.incr t.repl_requests;
  ignore
    (Atomic.fetch_and_add t.repl_bytes
       (String.length chunk.Replication.data));
  Protocol.Ok_ (Replication.encode_chunk chunk)

let run_repl_state t =
  Atomic.incr t.repl_requests;
  let s = Atomic.get t.current in
  (* live documents only: a retired slot's artifacts are deleted, so a
     follower asking for its files could only be refused *)
  let s_docs =
    Array.to_list t.masters
    |> List.filter_map (fun m ->
           if m.retired then None
           else
             Some
               {
                 Replication.name = m.name;
                 gen = Wal.generation m.wal;
                 seq = Wal.seq m.wal;
                 size = Replication.file_size m.wal_path;
               })
  in
  Protocol.Ok_
    (Replication.encode_state
       { Replication.s_epoch = t.cfg.epoch;
         s_version = s.Snapshot.version; s_docs })

(* A chunk must be bytes of the generation the reply names.  [rotate_mu]
   excludes the rotation in the group's pipeline domain, making the
   (generation, file bytes) pair atomic. *)
let read_stable_chunk m path ~offset ~limit =
  Mutex.lock m.rotate_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock m.rotate_mu) @@ fun () ->
  let data, size = Replication.read_chunk path ~offset ~limit in
  (data, size, Wal.generation m.wal)

let run_repl_file t doc file offset limit =
  match find_master t doc with
  | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | Some m ->
    let path =
      Replication.resolve_path ~xml:m.xml_path ~sidecar:m.sidecar_path
        ~wal:m.wal_path file
    in
    let data, size, gen = read_stable_chunk m path ~offset ~limit in
    repl_reply t { Replication.epoch = t.cfg.epoch; gen; size; data }

let run_repl_wait t doc want_gen offset timeout_ms =
  match find_master t doc with
  | None -> Protocol.Err (Printf.sprintf "unknown document %S" doc)
  | Some m ->
    let deadline =
      Unix.gettimeofday ()
      +. (float_of_int (min timeout_ms Replication.max_wait_ms) /. 1000.)
    in
    let rec loop () =
      let gen = Wal.generation m.wal in
      if gen <> want_gen then
        (* rotated past the follower's generation: an empty chunk naming
           the live generation sends it to the archived segment *)
        repl_reply t
          { Replication.epoch = t.cfg.epoch; gen;
            size = Replication.file_size m.wal_path; data = "" }
      else begin
        let size = Replication.file_size m.wal_path in
        if size > offset then begin
          let data, size, gen =
            read_stable_chunk m m.wal_path ~offset
              ~limit:Replication.max_chunk
          in
          repl_reply t { Replication.epoch = t.cfg.epoch; gen; size; data }
        end
        else if (not (Listener.running t.listener))
                || Unix.gettimeofday () > deadline then
          repl_reply t
            { Replication.epoch = t.cfg.epoch; gen; size; data = "" }
        else begin
          Thread.delay 0.005;
          loop ()
        end
      end
    in
    loop ()

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
   the full-fallback publication path takes its group's write lock, so
   holding them while waiting would deadlock. *)

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

(* Register a master + publish the document.  Caller holds the quiesced
   write locks (all groups).  The freshly built or recovered numbering is
   handed to the snapshot as is ({!Snapshot.host}, no copy); the master
   starts without a writer copy.  A name mapping to a retired slot is
   revived in place — the commit queues are empty, so no pending record
   can reference the old master being replaced.  Publication is a plain
   [Atomic.set]: quiescence guarantees no pipeline is racing a CAS. *)
let install_master t ~name ~r2 ~wal ~applied_seq =
  let xml_path, sidecar_path, wal_path = master_paths t name in
  let version = 1 + Atomic.fetch_and_add t.last_version 1 in
  let group = Shard_map.hash ~shards:(Array.length t.groups) name in
  let m =
    { name; group; retired = false; r2 = None; wal; applied_seq;
      applied_version = version; durable_version = version; wedged = None;
      xml_path; sidecar_path; wal_path; rotate_mu = Mutex.create () }
  in
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
    let version = install_master t ~name ~r2 ~wal ~applied_seq:0 in
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
        let version =
          install_master t ~name:doc ~r2:recovery.Wal.r2 ~wal
            ~applied_seq:(Wal.seq wal)
        in
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

(* Verb dispatch; the listener answers PING, STATS and SHUTDOWN itself. *)
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
  | Protocol.Promote ->
    Listener.Inline
      (fun () ->
        Protocol.Err
          "PROMOTE: this node is a primary, not a replica (already \
           accepting writes)")
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
        Protocol.Err "REBALANCE: this node is a shard; connect to the router")
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

let start cfg docs =
  (match validate_config cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Service.start: " ^ msg));
  (* An empty collection is a valid start: a shard in the collection
     tier boots bare and is filled by ADDDOC / ADOPT at runtime. *)
  ensure_dir cfg.data_dir;
  (* Persist the fencing epoch before serving: a follower's refusal rule
     depends on every node knowing which generation it speaks for. *)
  Replication.store_epoch cfg.data_dir cfg.epoch;
  let n_groups = resolved_commit_groups cfg in
  let seen = Hashtbl.create 16 in
  let masters, numbered =
    List.split
      (List.map
         (fun (name, root) ->
           if not (valid_doc_name name) then
             invalid_arg
               (Printf.sprintf "Service.start: bad document name %S" name);
           if Hashtbl.mem seen name then
             invalid_arg
               (Printf.sprintf "Service.start: duplicate document name %S"
                  name);
           Hashtbl.replace seen name ();
           let r2 = R2.number ~max_area_size:cfg.max_area_size root in
           let base = Filename.concat cfg.data_dir name in
           let xml_path = base ^ ".xml" in
           let sidecar_path = base ^ ".ruid" in
           let wal_path = base ^ ".wal" in
           Ruid.Persist.save r2 ~xml:xml_path ~sidecar:sidecar_path;
           let wal = Wal.create wal_path in
           (* generation 0: an earlier run's pairs and archives of the
              same name describe nothing this journal will replay *)
           Wal.trim wal_path ~gen:0;
           (* version 1 is the startup snapshot's stamp; every cursor
              starts there, matching the hand-off at [~version:1] below *)
           ( { name; group = Shard_map.hash ~shards:n_groups name;
               retired = false; r2 = None; wal; applied_seq = 0;
               applied_version = 1; durable_version = 1; wedged = None;
               xml_path; sidecar_path; wal_path;
               rotate_mu = Mutex.create () },
             (name, r2) ))
         docs)
  in
  let masters = Array.of_list masters in
  let catalog = Hashtbl.create (2 * Array.length masters) in
  Array.iteri (fun i m -> Hashtbl.replace catalog m.name i) masters;
  let planner_shared =
    Rxpath.Planner.make_shared ~plan_cache:cfg.plan_cache ()
  in
  (* The numberings just built are published as is: the snapshot owns
     them, and a master clones its own on the document's first UPDATE. *)
  let snapshot0 =
    fst
      (Snapshot.host (Snapshot.capture ~version:1 []) ~planner:planner_shared
         ~version:1 numbered)
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
  let t =
    {
      cfg;
      masters;
      catalog;
      catalog_mu = Mutex.create ();
      adopt_mu = Mutex.create ();
      planner_shared;
      current = Atomic.make snapshot0;
      groups =
        Array.init n_groups (fun g_id ->
            { g_id;
              g_write_mu = Mutex.create ();
              g_mu = Mutex.create ();
              g_cond = Condition.create ();
              g_queue = Queue.create ();
              g_committing = false;
              g_stop = false;
              g_writes =
                { w_batches = 0; w_records = 0; w_max_batch = 0;
                  w_flush_ns = 0.; w_pub_inc = 0; w_pub_full = 0;
                  w_areas = 0; w_rotations = 0; w_rotation_failures = 0 };
              g_handoffs = 0;
              g_lock_wait = Array.make Metrics.hist_buckets 0;
              g_fsync_wait = Array.make Metrics.hist_buckets 0;
            });
      pipelines = [||];
      last_version = Atomic.make snapshot0.Snapshot.version;
      repl_requests = Atomic.make 0;
      repl_bytes = Atomic.make 0;
      sched;
      exec;
      cache;
      metrics;
      listener;
    }
  in
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
      let s = Rxpath.Planner.shared_stats planner_shared in
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
     probe. *)
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
              publish_full = acc.Metrics.publish_full + w.w_pub_full;
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
        Metrics.role = "primary";
        epoch = cfg.epoch;
        served_requests = Atomic.get t.repl_requests;
        served_bytes = Atomic.get t.repl_bytes;
        lag_versions = 0;
        lag_bytes = 0;
        last_applied_seq = -1;
        reconnects = 0;
        refused_epoch = 0;
      });
  t.pipelines <-
    Array.map (fun g -> Domain.spawn (fun () -> pipeline_loop t g)) t.groups;
  Listener.serve listener ~teardown:(teardown t) (dispatch t);
  t
