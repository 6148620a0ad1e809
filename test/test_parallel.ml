(* Multicore read path: the domain executor, the snapshot-versioned result
   cache, exception accounting, the scaled default queue bound, and the
   determinism / version-correctness guarantees of parallel reads. *)

module Dom = Rxml.Dom
module P = Rserver.Protocol
module C = Rserver.Client
module Service = Rserver.Service
module Pool = Rserver.Pool
module Cache = Rserver.Query_cache
module Wal = Rstorage.Wal

let unique =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%d-p%d" (Unix.getpid ()) !n

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ()) ("ruid-par-" ^ unique ())
  in
  Unix.mkdir d 0o755;
  d

let sock_path () = Filename.concat "/tmp" ("ruid-" ^ unique () ^ ".sock")

let with_server ?(workers = 2) ?(max_queue = 0) ?(domains = 0) ?(cache_mb = 0)
    docs f =
  let cfg =
    {
      Service.socket_path = sock_path ();
      data_dir = temp_dir ();
      workers;
      max_queue;
      deadline_ms = 0;
      max_area_size = 16;
      max_depth = 10_000;
      domains;
      cache_mb;
      commit_interval_us = 0;
      commit_max_batch = 64;
      commit_groups = 1;
      wal_segment_bytes = 0;
      plan_cache = 256;
      epoch = 1;
      upstream = None;
      poll_ms = 500;
    }
  in
  let t = Service.start cfg docs in
  Fun.protect ~finally:(fun () -> Service.stop t) (fun () -> f cfg t)

let ok_body = function
  | P.Ok_ body -> body
  | P.Err m -> Alcotest.failf "unexpected ERR %s" m
  | P.Busy m -> Alcotest.failf "unexpected BUSY %s" m

let get_kv body key =
  match C.kv_int body key with
  | Some v -> v
  | None -> Alcotest.failf "reply %S lacks %s=" body key

let doc_of_string s = Dom.root_element (Rxml.Parser.parse_string s)
let library = "<lib><book><title/><author/></book><book><title/></book></lib>"

(* ------------------------------------------------------------------ *)
(* Query cache                                                         *)
(* ------------------------------------------------------------------ *)

(* normalize now canonicalizes through the parser: abbreviations expand to
   explicit axes, so every spelling of one query shares a cache entry. *)
let test_cache_normalize () =
  Alcotest.(check string) "trims + expands"
    "/descendant-or-self::node()/child::a"
    (Cache.normalize "  //a  ");
  Alcotest.(check string) "whitespace variants agree"
    (Cache.normalize "//a[b='c']/d")
    (Cache.normalize "//a[\t b  =\n'c' ]/d");
  Alcotest.(check string) "abbreviated = explicit"
    (Cache.normalize "/descendant-or-self::node()/child::a[child::b]")
    (Cache.normalize "//a[b]");
  Alcotest.(check string) "idempotent"
    (Cache.normalize "//a/b")
    (Cache.normalize (Cache.normalize "//a/b"));
  (* unparsable input degrades to whitespace collapse, still idempotent *)
  Alcotest.(check string) "fallback collapses" "not ( an xpath"
    (Cache.normalize "  not (  an\txpath ");
  Alcotest.(check string) "agrees with planner normal form"
    (Rxpath.Xparser.normalize "//a[b]/c")
    (Cache.normalize "//a[b]/c")

let test_cache_basics () =
  let c = Cache.create ~shards:2 ~max_entries:100 ~max_bytes:100_000 () in
  Alcotest.(check (option string)) "empty miss" None
    (Cache.find c ~doc:"d" ~version:1 ~query:"//a");
  Cache.add c ~doc:"d" ~version:1 ~query:"//a" "7";
  Alcotest.(check (option string)) "hit" (Some "7")
    (Cache.find c ~doc:"d" ~version:1 ~query:"//a");
  (* version is part of the key: a new snapshot never sees old entries *)
  Alcotest.(check (option string)) "other version misses" None
    (Cache.find c ~doc:"d" ~version:2 ~query:"//a");
  Alcotest.(check (option string)) "other doc misses" None
    (Cache.find c ~doc:"e" ~version:1 ~query:"//a");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 3 s.Cache.misses;
  Alcotest.(check int) "entries" 1 s.Cache.entries;
  Alcotest.(check bool) "bytes accounted" true (s.Cache.bytes > 0);
  Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Cache.stats c).Cache.entries

let test_cache_lru_eviction () =
  (* One shard so recency order is global and deterministic. *)
  let c = Cache.create ~shards:1 ~max_entries:3 ~max_bytes:1_000_000 () in
  Cache.add c ~doc:"d" ~version:1 ~query:"q1" "a";
  Cache.add c ~doc:"d" ~version:1 ~query:"q2" "b";
  Cache.add c ~doc:"d" ~version:1 ~query:"q3" "c";
  (* touch q1 so q2 is the LRU victim *)
  ignore (Cache.find c ~doc:"d" ~version:1 ~query:"q1");
  Cache.add c ~doc:"d" ~version:1 ~query:"q4" "d";
  Alcotest.(check (option string)) "q1 kept (recently used)" (Some "a")
    (Cache.find c ~doc:"d" ~version:1 ~query:"q1");
  Alcotest.(check (option string)) "q2 evicted" None
    (Cache.find c ~doc:"d" ~version:1 ~query:"q2");
  Alcotest.(check (option string)) "q4 present" (Some "d")
    (Cache.find c ~doc:"d" ~version:1 ~query:"q4");
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions

let test_cache_byte_cap () =
  let c = Cache.create ~shards:1 ~max_entries:1000 ~max_bytes:400 () in
  let big = String.make 100 'x' in
  for i = 1 to 10 do
    Cache.add c ~doc:"d" ~version:i ~query:"q" big
  done;
  let s = Cache.stats c in
  Alcotest.(check bool) "bytes within cap" true (s.Cache.bytes <= 400);
  Alcotest.(check bool) "evicted to fit" true (s.Cache.evictions > 0);
  (* an entry bigger than the whole shard is refused, not thrashed *)
  Cache.add c ~doc:"d" ~version:99 ~query:"huge" (String.make 4096 'y');
  Alcotest.(check (option string)) "oversized entry dropped" None
    (Cache.find c ~doc:"d" ~version:99 ~query:"huge")

(* ------------------------------------------------------------------ *)
(* Pools: domain workers, and exception accounting                      *)
(* ------------------------------------------------------------------ *)

let test_executor_runs_jobs () =
  let ex = Pool.create ~kind:`Domains ~workers:2 ~max_queue:16 () in
  let counter = Atomic.make 0 in
  let n = 50 in
  let submitted = ref 0 in
  for _ = 1 to n do
    if Pool.submit ex (fun () -> Atomic.incr counter) then incr submitted
  done;
  Pool.shutdown ex;
  Alcotest.(check int) "all admitted jobs ran" !submitted (Atomic.get counter);
  Alcotest.(check bool) "most jobs admitted" true (!submitted > 0);
  Alcotest.(check int) "two domains" 2 (Pool.workers ex);
  Alcotest.(check int) "drained" 0 (Pool.queue_depth ex);
  Alcotest.(check bool) "rejects after shutdown" false
    (Pool.submit ex (fun () -> ()))

let test_executor_bounds_and_exceptions () =
  let dropped = ref [] and dmu = Mutex.create () in
  let on_exn ~label e =
    Mutex.lock dmu;
    dropped := (label, Printexc.to_string e) :: !dropped;
    Mutex.unlock dmu
  in
  let ex = Pool.create ~on_exn ~kind:`Domains ~workers:1 ~max_queue:2 () in
  let release = Mutex.create () and released = Condition.create () in
  let go = ref false in
  let blocker () =
    Mutex.lock release;
    while not !go do
      Condition.wait released release
    done;
    Mutex.unlock release
  in
  Alcotest.(check bool) "job admitted" true (Pool.submit ex blocker);
  Thread.delay 0.1;
  (* the domain holds the blocker; fill the queue *)
  Alcotest.(check bool) "slot 1" true
    (Pool.submit ~label:"BOOM" ex (fun () -> failwith "kaput"));
  Alcotest.(check bool) "slot 2" true (Pool.submit ex (fun () -> ()));
  Alcotest.(check bool) "queue full" false (Pool.submit ex (fun () -> ()));
  Alcotest.(check int) "depth" 2 (Pool.queue_depth ex);
  Mutex.lock release;
  go := true;
  Condition.broadcast released;
  Mutex.unlock release;
  Pool.shutdown ex;
  (match !dropped with
  | [ (label, msg) ] ->
    Alcotest.(check string) "label reaches on_exn" "BOOM" label;
    Alcotest.(check bool) "message kept" true
      (String.length msg > 0)
  | l -> Alcotest.failf "expected exactly one dropped exception, got %d"
           (List.length l));
  let busy = Pool.busy_seconds ex in
  Alcotest.(check int) "one busy slot" 1 (Array.length busy);
  Alcotest.(check bool) "busy time accumulated" true (busy.(0) > 0.)

let test_scheduler_reports_dropped () =
  let m = Rserver.Metrics.create () in
  let sched =
    Pool.create
      ~on_exn:(fun ~label e -> Rserver.Metrics.record_dropped m ~verb:label e)
      ~kind:`Threads ~workers:1 ~max_queue:8 ()
  in
  Alcotest.(check bool) "raising job admitted" true
    (Pool.submit ~label:"QUERY" sched (fun () -> failwith "x"));
  Alcotest.(check bool) "second raising job" true
    (Pool.submit ~label:"QUERY" sched (fun () ->
         raise Not_found));
  Pool.shutdown sched;
  Alcotest.(check int) "both counted" 2 (Rserver.Metrics.dropped m);
  let stats = Rserver.Metrics.render m in
  Alcotest.(check bool) "rendered in STATS" true
    (C.kv_int stats "dropped_exceptions" = Some 2)

(* ------------------------------------------------------------------ *)
(* Default queue bound regression (satellite: E13's 67% busy at 8       *)
(* clients came from a bound that ignored the pool size)                *)
(* ------------------------------------------------------------------ *)

let run_mix ~clients ~per_client ~update_every cfg =
  (* closed-loop 90/10-style mix; returns (ok, busy, err) *)
  let ok = Atomic.make 0 and busy = Atomic.make 0 and err = Atomic.make 0 in
  let body () =
    C.with_connection cfg.Service.socket_path @@ fun c ->
    for i = 0 to per_client - 1 do
      let req =
        if update_every > 0 && i mod update_every = update_every - 1 then
          P.Update
            { doc = "lib";
              op = Wal.Insert { parent_rank = 0; pos = 0; tag = "m" } }
        else P.Count "//m"
      in
      match C.request c req with
      | P.Ok_ _ -> Atomic.incr ok
      | P.Busy _ -> Atomic.incr busy
      | P.Err _ -> Atomic.incr err
    done
  in
  let threads = Array.init clients (fun _ -> Thread.create body ()) in
  Array.iter Thread.join threads;
  (Atomic.get ok, Atomic.get busy, Atomic.get err)

let test_default_queue_low_busy () =
  (* clients = workers on the default (auto) queue bound: the 90/10 mix
     must complete essentially without rejects. *)
  let workers = 4 in
  with_server ~workers ~max_queue:0 [ ("lib", doc_of_string library) ]
  @@ fun cfg _t ->
  let clients = workers and per_client = 50 in
  let ok, busy, err = run_mix ~clients ~per_client ~update_every:10 cfg in
  let total = clients * per_client in
  Alcotest.(check int) "no errors" 0 err;
  let busy_rate = float_of_int busy /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "busy rate %.1f%% < 10%%" (busy_rate *. 100.))
    true (busy_rate < 0.10);
  Alcotest.(check bool) "work done" true (ok > 0)

(* ------------------------------------------------------------------ *)
(* Determinism: 1 domain vs N domains                                  *)
(* ------------------------------------------------------------------ *)

let test_domain_determinism () =
  (* The same 20 seeded-random XMark queries must produce bit-identical
     replies (totals, per-document counts, identifier lists, order) from a
     1-domain and a 4-domain server hosting the same document. *)
  let root = Rworkload.Xmark.generate ~seed:77 ~scale:0.6 in
  let rng = Rworkload.Rng.create 4242 in
  let pool = Array.of_list Rworkload.Xmark.queries in
  let queries = List.init 20 (fun _ -> Rworkload.Rng.pick rng pool) in
  let collect domains =
    with_server ~workers:2 ~domains [ ("xmark", Dom.clone root) ]
    @@ fun cfg _t ->
    C.with_connection cfg.Service.socket_path @@ fun c ->
    List.concat_map
      (fun q ->
        [ ok_body (C.request c (P.Query q)); ok_body (C.request c (P.Count q)) ])
      queries
  in
  let single = collect 1 in
  let quad = collect 4 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "reply %d identical across domain counts" i) a b)
    (List.combine single quad)

(* ------------------------------------------------------------------ *)
(* Cache correctness under a concurrent writer                         *)
(* ------------------------------------------------------------------ *)

let test_cache_hammer_versioned () =
  (* Same invariant as the snapshot-isolation test — count(//m) = v - 1 —
     but with parallel domains AND the result cache on.  A cache returning
     an answer from any version other than the one it claims breaks the
     equation immediately. *)
  with_server ~workers:2 ~domains:2 ~cache_mb:8
    [ ("lib", doc_of_string library) ]
  @@ fun cfg t ->
  let updates = 30 and readers = 4 and reads = 80 in
  let violations = ref [] and vmu = Mutex.create () in
  let record msg =
    Mutex.lock vmu;
    violations := msg :: !violations;
    Mutex.unlock vmu
  in
  let writer =
    Thread.create
      (fun () ->
        C.with_connection cfg.Service.socket_path @@ fun c ->
        for i = 1 to updates do
          (match
             C.request c
               (P.Update
                  { doc = "lib";
                    op = Wal.Insert { parent_rank = 0; pos = 0; tag = "m" } })
           with
          | P.Ok_ _ -> ()
          | r -> record (Printf.sprintf "update %d: %s" i (P.response_to_string r)));
          Thread.yield ()
        done)
      ()
  in
  let reader _ =
    Thread.create
      (fun () ->
        C.with_connection cfg.Service.socket_path @@ fun c ->
        for _ = 1 to reads do
          match C.request c (P.Count "//m") with
          | P.Ok_ body ->
            let v = get_kv body "v" and n = get_kv body "total" in
            if n <> v - 1 then
              record
                (Printf.sprintf "version mismatch: v=%d claims %d <m>" v n)
          | P.Busy _ -> ()
          | P.Err m -> record ("reader error: " ^ m)
        done)
      ()
  in
  let rs = List.init readers reader in
  Thread.join writer;
  List.iter Thread.join rs;
  (match !violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%d violation(s), e.g. %s" (List.length !violations) v);
  (* the workload above repeats one query per snapshot across 4 readers:
     the cache must have answered part of it *)
  match Service.cache_stats t with
  | None -> Alcotest.fail "cache configured but no stats"
  | Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "cache hits recorded (%d hits / %d misses)" s.Cache.hits
         s.Cache.misses)
      true (s.Cache.hits > 0)

let test_cached_replies_identical () =
  (* A cache hit must render byte-identically to the miss that filled it,
     for both COUNT and QUERY (ids, caps, per-doc breakdown). *)
  with_server ~workers:2 ~domains:2 ~cache_mb:4
    [ ("lib", doc_of_string library) ]
  @@ fun cfg t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  List.iter
    (fun q ->
      let miss = ok_body (C.request c (P.Query q)) in
      let hit = ok_body (C.request c (P.Query q)) in
      Alcotest.(check string) ("QUERY " ^ q) miss hit;
      let cmiss = ok_body (C.request c (P.Count q)) in
      let chit = ok_body (C.request c (P.Count q)) in
      Alcotest.(check string) ("COUNT " ^ q) cmiss chit;
      (* whitespace-normalized spelling shares the entry *)
      let spaced = ok_body (C.request c (P.Count ("  " ^ q ^ "  "))) in
      Alcotest.(check string) ("normalized COUNT " ^ q) cmiss spaced)
    [ "//title"; "//book/title"; "/lib/book"; "//nosuch" ];
  match Service.cache_stats t with
  | Some s -> Alcotest.(check bool) "hits observed" true (s.Cache.hits >= 8)
  | None -> Alcotest.fail "no cache stats"

let test_domains_stats_rendered () =
  with_server ~workers:2 ~domains:2 ~cache_mb:4
    [ ("lib", doc_of_string library) ]
  @@ fun cfg _t ->
  C.with_connection cfg.Service.socket_path @@ fun c ->
  ignore (ok_body (C.request c (P.Count "//title")));
  let stats = ok_body (C.request c P.Stats) in
  Alcotest.(check (option int)) "domains gauge" (Some 2)
    (C.kv_int stats "domains");
  Alcotest.(check bool) "cache gauges" true
    (C.kv_int stats "cache_hits" <> None
    && C.kv_int stats "cache_misses" <> None);
  Alcotest.(check (option int)) "no dropped exceptions" (Some 0)
    (C.kv_int stats "dropped_exceptions")

let suite =
  [
    Alcotest.test_case "cache: normalize" `Quick test_cache_normalize;
    Alcotest.test_case "cache: basics + version keying" `Quick test_cache_basics;
    Alcotest.test_case "cache: LRU eviction order" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache: byte cap" `Quick test_cache_byte_cap;
    Alcotest.test_case "executor: runs jobs on domains" `Quick test_executor_runs_jobs;
    Alcotest.test_case "executor: bounds + exception hook" `Quick
      test_executor_bounds_and_exceptions;
    Alcotest.test_case "scheduler: dropped exceptions counted" `Quick
      test_scheduler_reports_dropped;
    Alcotest.test_case "default queue bound: low busy at clients=workers" `Quick
      test_default_queue_low_busy;
    Alcotest.test_case "determinism: 1 vs 4 domains bit-identical" `Quick
      test_domain_determinism;
    Alcotest.test_case "cache hammer: never a mismatched version" `Quick
      test_cache_hammer_versioned;
    Alcotest.test_case "cache hit renders identically to miss" `Quick
      test_cached_replies_identical;
    Alcotest.test_case "STATS renders domain + cache gauges" `Quick
      test_domains_stats_rendered;
  ]
