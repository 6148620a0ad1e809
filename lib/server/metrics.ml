(* Buckets: bucket i counts latencies in [2^i, 2^(i+1)) ns.  62 buckets
   cover every representable duration. *)
let buckets = 62

type counters = { mutable ok : int; mutable err : int; mutable busy : int }

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

type planner_stats = {
  chain : int;
  twig : int;
  engine : int;
  pruned : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  plan_entries : int;
}

type write_stats = {
  batches : int;
  records : int;
  max_batch : int;
  flush_ns : float;
  publish_incremental : int;
  publish_full : int;
  areas_rebuilt : int;
  rotations : int;
  rotation_failures : int;
  private_masters : int;
}

type pipeline_group_stats = {
  gq_depth : int;
  g_batches : int;
  g_records : int;
  g_handoffs : int;
  g_lock_wait : int array;
  g_fsync_wait : int array;
}

type repl_stats = {
  role : string;  (* "primary" | "replica" | "promoted" *)
  epoch : int;
  served_requests : int;
  served_bytes : int;
  lag_versions : int;
  lag_bytes : int;
  last_applied_seq : int;
  reconnects : int;
  refused_epoch : int;
}

type router_stats = {
  shard_up : bool array;
  shard_docs : int array;
  inflight : int;
  scatters : int;
  partials : int;
  fanout_hist : int array;
  rebalances : int;
  rebalance_pause_ms : float;
}

type t = {
  mu : Mutex.t;
  total : counters;
  verbs : (string, counters) Hashtbl.t;
  hist : int array;
  mutable max_ns : float;
  mutable dropped : int;
  mutable session_errors : int;
  dropped_logged : (string, unit) Hashtbl.t;  (* verbs already logged once *)
  mutable queue_probe : (unit -> int) option;
  mutable snapshot_probe : (unit -> int * float) option;
  mutable cache_probe : (unit -> cache_stats) option;
  mutable domain_probe : (unit -> float array) option;
  mutable write_probe : (unit -> write_stats) option;
  mutable pipeline_probe : (unit -> pipeline_group_stats array) option;
  mutable planner_probe : (unit -> planner_stats) option;
  mutable repl_probe : (unit -> repl_stats) option;
  mutable router_probe : (unit -> router_stats) option;
}

let create () =
  {
    mu = Mutex.create ();
    total = { ok = 0; err = 0; busy = 0 };
    verbs = Hashtbl.create 16;
    hist = Array.make buckets 0;
    max_ns = 0.;
    dropped = 0;
    session_errors = 0;
    dropped_logged = Hashtbl.create 4;
    queue_probe = None;
    snapshot_probe = None;
    cache_probe = None;
    domain_probe = None;
    write_probe = None;
    pipeline_probe = None;
    planner_probe = None;
    repl_probe = None;
    router_probe = None;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let bucket_of ns =
  if ns < 1. then 0
  else min (buckets - 1) (int_of_float (Float.log2 ns))

(* The histogram shape is shared with the per-pipeline wait histograms the
   service maintains outside this registry (recording there must not take
   the registry mutex on every update). *)
let hist_buckets = buckets
let hist_bucket = bucket_of

(* Upper bound of the bucket holding the q-quantile sample; 0 when the
   histogram is empty. *)
let hist_percentile h q =
  let n = Array.fold_left ( + ) 0 h in
  if n = 0 then 0.
  else begin
    let want = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    let seen = ref 0 and result = ref 0. in
    (try
       for i = 0 to Array.length h - 1 do
         seen := !seen + h.(i);
         if !seen >= want then begin
           result := 2. ** float_of_int (i + 1);
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

(* "bucket:count" pairs for the occupied buckets only — 62 mostly-empty
   slots per group would drown the STATS dump. *)
let sparse_hist h =
  let parts = ref [] in
  Array.iteri
    (fun i c -> if c > 0 then parts := Printf.sprintf "%d:%d" i c :: !parts)
    h;
  if !parts = [] then "-" else String.concat "," (List.rev !parts)

let bump c = function
  | `Ok -> c.ok <- c.ok + 1
  | `Err -> c.err <- c.err + 1
  | `Busy -> c.busy <- c.busy + 1

let record t ~verb ~outcome ~latency_ns =
  locked t (fun () ->
      bump t.total outcome;
      let c =
        match Hashtbl.find_opt t.verbs verb with
        | Some c -> c
        | None ->
          let c = { ok = 0; err = 0; busy = 0 } in
          Hashtbl.replace t.verbs verb c;
          c
      in
      bump c outcome;
      t.hist.(bucket_of latency_ns) <- t.hist.(bucket_of latency_ns) + 1;
      if latency_ns > t.max_ns then t.max_ns <- latency_ns)

let record_dropped t ~verb exn =
  let log_it =
    locked t (fun () ->
        t.dropped <- t.dropped + 1;
        if Hashtbl.mem t.dropped_logged verb then false
        else begin
          Hashtbl.replace t.dropped_logged verb ();
          true
        end)
  in
  (* First occurrence per verb goes to stderr; the rest only count.  The
     log write happens outside the lock. *)
  if log_it then
    Printf.eprintf "[service] dropped exception in %s job: %s\n%!" verb
      (Printexc.to_string exn)

let dropped t = locked t (fun () -> t.dropped)

(* A peer that vanished mid-session (EPIPE on the reply, a torn frame).
   The session closes; the process must not notice beyond this counter. *)
let record_session_error t =
  locked t (fun () -> t.session_errors <- t.session_errors + 1)

let session_errors t = locked t (fun () -> t.session_errors)

let set_queue_probe t f = locked t (fun () -> t.queue_probe <- Some f)
let set_snapshot_probe t f = locked t (fun () -> t.snapshot_probe <- Some f)
let set_cache_probe t f = locked t (fun () -> t.cache_probe <- Some f)
let set_domain_probe t f = locked t (fun () -> t.domain_probe <- Some f)
let set_write_probe t f = locked t (fun () -> t.write_probe <- Some f)
let set_pipeline_probe t f = locked t (fun () -> t.pipeline_probe <- Some f)
let set_planner_probe t f = locked t (fun () -> t.planner_probe <- Some f)
let set_repl_probe t f = locked t (fun () -> t.repl_probe <- Some f)
let set_router_probe t f = locked t (fun () -> t.router_probe <- Some f)

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

(* Upper bound of the bucket in which the q-quantile request falls. *)
let percentile_locked t q =
  let n = Array.fold_left ( + ) 0 t.hist in
  if n = 0 then 0.
  else begin
    let want = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    let seen = ref 0 and result = ref 0. in
    (try
       for i = 0 to buckets - 1 do
         seen := !seen + t.hist.(i);
         if !seen >= want then begin
           result := 2. ** float_of_int (i + 1);
           raise Exit
         end
       done
     with Exit -> ());
    min !result (Float.max t.max_ns 1.)
  end

let percentile t q = locked t (fun () -> percentile_locked t q)

let summary t =
  locked t (fun () ->
      {
        requests = t.total.ok + t.total.err + t.total.busy;
        ok = t.total.ok;
        err = t.total.err;
        busy = t.total.busy;
        p50_ns = percentile_locked t 0.50;
        p95_ns = percentile_locked t 0.95;
        p99_ns = percentile_locked t 0.99;
        max_ns = t.max_ns;
      })

let by_verb t =
  locked t (fun () ->
      Hashtbl.fold
        (fun v (c : counters) acc -> (v, c.ok, c.err, c.busy) :: acc)
        t.verbs []
      |> List.sort compare)

let proc_status key =
  let prefix = key ^ ":" in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.starts_with ~prefix line -> (
        let n = String.length prefix in
        try Scanf.sscanf (String.sub line n (String.length line - n)) " %d" Fun.id
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0)
      | _ -> go ()
    in
    go ()

let vm_hwm_kb () = proc_status "VmHWM"

let render t =
  let s = summary t in
  let verbs = by_verb t in
  let queue_depth =
    match locked t (fun () -> t.queue_probe) with
    | Some f -> f ()
    | None -> 0
  in
  let snap_version, snap_age_ms =
    match locked t (fun () -> t.snapshot_probe) with
    | Some f ->
      let v, published = f () in
      (v, (Unix.gettimeofday () -. published) *. 1e3)
    | None -> (0, 0.)
  in
  let cache = match locked t (fun () -> t.cache_probe) with
    | Some f -> Some (f ())
    | None -> None
  in
  let domains = match locked t (fun () -> t.domain_probe) with
    | Some f -> Some (f ())
    | None -> None
  in
  let write = match locked t (fun () -> t.write_probe) with
    | Some f -> Some (f ())
    | None -> None
  in
  let pipeline = match locked t (fun () -> t.pipeline_probe) with
    | Some f -> Some (f ())
    | None -> None
  in
  let planner = match locked t (fun () -> t.planner_probe) with
    | Some f -> Some (f ())
    | None -> None
  in
  let repl = match locked t (fun () -> t.repl_probe) with
    | Some f -> Some (f ())
    | None -> None
  in
  let router = match locked t (fun () -> t.router_probe) with
    | Some f -> Some (f ())
    | None -> None
  in
  let dropped, session_errs =
    locked t (fun () -> (t.dropped, t.session_errors))
  in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "requests=%d ok=%d err=%d busy=%d dropped_exceptions=%d \
        session_errors=%d\n"
       s.requests s.ok s.err s.busy dropped session_errs);
  Buffer.add_string b
    (Printf.sprintf "latency_p50_ns=%.0f latency_p95_ns=%.0f latency_p99_ns=%.0f latency_max_ns=%.0f\n"
       s.p50_ns s.p95_ns s.p99_ns s.max_ns);
  Buffer.add_string b
    (Printf.sprintf "queue_depth=%d snapshot_version=%d snapshot_age_ms=%.1f\n"
       queue_depth snap_version snap_age_ms);
  (let gc = Gc.quick_stat () in
   Buffer.add_string b
     (Printf.sprintf "heap_words=%d top_heap_words=%d vm_hwm_kb=%d\n"
        gc.Gc.heap_words gc.Gc.top_heap_words (vm_hwm_kb ())));
  (match cache with
  | None -> ()
  | Some c ->
    let lookups = c.hits + c.misses in
    Buffer.add_string b
      (Printf.sprintf
         "cache_hits=%d cache_misses=%d cache_hit_rate=%.4f cache_evictions=%d cache_entries=%d cache_bytes=%d\n"
         c.hits c.misses
         (if lookups = 0 then 0. else float_of_int c.hits /. float_of_int lookups)
         c.evictions c.entries c.bytes));
  (match domains with
  | None -> ()
  | Some busy ->
    Buffer.add_string b
      (Printf.sprintf "domains=%d domain_busy_ms=%s\n" (Array.length busy)
         (String.concat ","
            (Array.to_list
               (Array.map (fun s -> Printf.sprintf "%.1f" (s *. 1e3)) busy)))));
  (match write with
  | None -> ()
  | Some w ->
    Buffer.add_string b
      (Printf.sprintf
         "wal_batches=%d wal_records=%d wal_max_batch=%d wal_mean_batch=%.2f wal_flush_ms=%.1f wal_rotations=%d wal_rotation_failures=%d\n"
         w.batches w.records w.max_batch
         (if w.batches = 0 then 0.
          else float_of_int w.records /. float_of_int w.batches)
         (w.flush_ns /. 1e6) w.rotations w.rotation_failures);
    Buffer.add_string b
      (Printf.sprintf
         "publish_incremental=%d publish_full=%d areas_rebuilt=%d \
          private_masters=%d\n"
         w.publish_incremental w.publish_full w.areas_rebuilt
         w.private_masters));
  (match pipeline with
  | None -> ()
  | Some groups ->
    let handoffs =
      Array.fold_left (fun acc g -> acc + g.g_handoffs) 0 groups
    in
    Buffer.add_string b
      (Printf.sprintf "commit_groups=%d leader_handoffs=%d\n"
         (Array.length groups) handoffs);
    Array.iteri
      (fun i g ->
        Buffer.add_string b
          (Printf.sprintf
             "group=%d queue_depth=%d batches=%d records=%d handoffs=%d \
lock_wait_p50_ns=%.0f lock_wait_p99_ns=%.0f fsync_wait_p50_ns=%.0f \
fsync_wait_p99_ns=%.0f lock_wait_hist=%s fsync_wait_hist=%s\n"
             i g.gq_depth g.g_batches g.g_records g.g_handoffs
             (hist_percentile g.g_lock_wait 0.50)
             (hist_percentile g.g_lock_wait 0.99)
             (hist_percentile g.g_fsync_wait 0.50)
             (hist_percentile g.g_fsync_wait 0.99)
             (sparse_hist g.g_lock_wait)
             (sparse_hist g.g_fsync_wait)))
      groups);
  (match planner with
  | None -> ()
  | Some p ->
    let lookups = p.plan_hits + p.plan_misses in
    Buffer.add_string b
      (Printf.sprintf
         "planner_chain=%d planner_twig=%d planner_engine=%d planner_pruned=%d \
plan_cache_hits=%d plan_cache_misses=%d plan_cache_hit_rate=%.4f \
plan_cache_evictions=%d plan_cache_entries=%d\n"
         p.chain p.twig p.engine p.pruned p.plan_hits p.plan_misses
         (if lookups = 0 then 0.
          else float_of_int p.plan_hits /. float_of_int lookups)
         p.plan_evictions p.plan_entries));
  (match repl with
  | None -> ()
  | Some r ->
    Buffer.add_string b
      (Printf.sprintf
         "repl_role=%s repl_epoch=%d repl_served_requests=%d \
          repl_served_bytes=%d\n"
         r.role r.epoch r.served_requests r.served_bytes);
    if r.role <> "primary" then
      Buffer.add_string b
        (Printf.sprintf
           "repl_lag_versions=%d repl_lag_bytes=%d repl_last_seq=%d \
            repl_reconnects=%d repl_refused_epoch=%d\n"
           r.lag_versions r.lag_bytes r.last_applied_seq r.reconnects
           r.refused_epoch));
  (match router with
  | None -> ()
  | Some r ->
    let csv f a = String.concat "," (Array.to_list (Array.map f a)) in
    Buffer.add_string b
      (Printf.sprintf
         "router_shards=%d router_up=%s router_docs=%s router_inflight=%d\n"
         (Array.length r.shard_up)
         (csv (fun u -> if u then "1" else "0") r.shard_up)
         (csv string_of_int r.shard_docs)
         r.inflight);
    Buffer.add_string b
      (Printf.sprintf
         "router_scatters=%d router_partials=%d router_fanout_hist=%s \
router_rebalances=%d router_rebalance_pause_ms=%.1f\n"
         r.scatters r.partials
         (csv string_of_int r.fanout_hist)
         r.rebalances r.rebalance_pause_ms));
  List.iter
    (fun (v, ok, err, busy) ->
      Buffer.add_string b
        (Printf.sprintf "verb=%s ok=%d err=%d busy=%d\n" v ok err busy))
    verbs;
  (* drop the trailing newline: the frame is self-delimiting *)
  let out = Buffer.contents b in
  String.sub out 0 (String.length out - 1)

let reset t =
  locked t (fun () ->
      t.total.ok <- 0;
      t.total.err <- 0;
      t.total.busy <- 0;
      Hashtbl.reset t.verbs;
      Array.fill t.hist 0 buckets 0;
      t.max_ns <- 0.;
      t.dropped <- 0;
      t.session_errors <- 0;
      Hashtbl.reset t.dropped_logged)
