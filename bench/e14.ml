(* E14 — Multicore read path: systhreads vs domains, cache off vs on.

   The paper's reads (Lemma 1: parent derivation and axis checks need no
   I/O) are pure CPU over an immutable snapshot, so they should scale with
   cores.  E13 showed the single-domain systhread pool does not: throughput
   *fell* as clients grew.  This sweep drives the same closed-loop client
   harness against three read paths — the systhread pool ("threads"), one
   executor domain, and four executor domains — each with the result cache
   off and on, under a 90/10 and a 99/1 read/update mix at 2/8/32 clients.

   Reads rotate over a fixed set of mid-cost XMark queries (hundreds of
   microseconds each, well above socket round-trip time), so the numbers
   measure query evaluation, not framing.  Updates insert one <m> node,
   bumping the snapshot version and thereby orphaning every cached entry
   (version-keyed caching needs no invalidation).

   Raw rows and a headline comparison go to BENCH_parallel.json; the CI
   `parallel` job gates on the headline ratio. *)

module Service = Rserver.Service
module Client = Rserver.Client
module Protocol = Rserver.Protocol

let json_rows : string list ref = ref []

type level = {
  mode : string;
  clients : int;
  mix : string;
  cache_mb : int;
  throughput : float;  (* OK replies per second, reads + writes *)
  p50_us : float;
  busy_rate : float;
}

let results : level list ref = ref []

let workdir () = Report.workdir "e14"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* Mid-cost structural queries (see E4/E11): each hundreds of microseconds
   of evaluation on the scale-2 document — the read work the executor
   parallelizes and the cache elides. *)
let read_queries =
  [|
    "//item/name";
    "//open_auction/bidder/increase";
    "//person[creditcard]/name";
    "//closed_auction//listitem";
    "//item[quantity>3]/name";
    "//annotation/preceding::bidder";
    "//parlist//text";
    "//listitem/ancestor::item";
  |]

(* One level: a fresh server for [mode] = `Threads | `Domains n, with or
   without the cache, [clients] closed-loop clients, [per_client] requests
   each; request i is an UPDATE every [update_every]-th slot, otherwise a
   QUERY/COUNT rotating over [read_queries]. *)
let run_level ~doc_name ~root ~mode ~cache_mb ~mix_name ~update_every ~clients
    ~per_client =
  let mode_name, workers, domains =
    match mode with
    | `Threads -> ("threads", 4, 0)
    | `Domains n -> (Printf.sprintf "domains%d" n, 2, n)
  in
  let mix_tag = String.map (fun c -> if c = '/' then '-' else c) mix_name in
  let tag =
    Printf.sprintf "%s-c%d-%s-m%d" mode_name clients mix_tag cache_mb
  in
  let cfg =
    {
      Service.socket_path = Filename.concat (workdir ()) (tag ^ ".sock");
      data_dir = Filename.concat (workdir ()) tag;
      workers;
      max_queue = 0 (* default: 4 x pool *);
      deadline_ms = 0;
      max_area_size = 64;
      max_depth = 10_000;
      domains;
      cache_mb;
      commit_interval_us = 0;
      commit_max_batch = 64;
      commit_groups = 0 (* default: one pipeline per read domain *);
      wal_segment_bytes = 0;
      plan_cache = 256;
      epoch = 1;
      upstream = None;
      poll_ms = 500;
    }
  in
  let srv = Service.start cfg [ (doc_name, Rxml.Dom.clone root) ] in
  let ok = Atomic.make 0 and err = Atomic.make 0 and busy = Atomic.make 0 in
  let read_ok = Atomic.make 0 in
  let lat_mu = Mutex.create () in
  let latencies = ref [] in
  let client_body k () =
    let conn = Client.connect cfg.Service.socket_path in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    for i = 0 to per_client - 1 do
      let slot = (k * per_client) + i in
      let is_update = i mod update_every = update_every - 1 in
      let req =
        if is_update then
          Protocol.Update
            {
              doc = doc_name;
              op = Rstorage.Wal.Insert { parent_rank = 0; pos = 0; tag = "m" };
            }
        else
          let q = read_queries.(slot mod Array.length read_queries) in
          if slot mod 2 = 0 then Protocol.Count q else Protocol.Query q
      in
      let t0 = Unix.gettimeofday () in
      let resp = Client.request conn req in
      let dt = Unix.gettimeofday () -. t0 in
      match resp with
      | Protocol.Ok_ _ ->
        Atomic.incr ok;
        if not is_update then Atomic.incr read_ok;
        Mutex.lock lat_mu;
        latencies := dt :: !latencies;
        Mutex.unlock lat_mu
      | Protocol.Err _ -> Atomic.incr err
      | Protocol.Busy _ -> Atomic.incr busy
    done
  in
  let t0 = Unix.gettimeofday () in
  let threads = Array.init clients (fun k -> Thread.create (client_body k) ()) in
  Array.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  let hit_rate =
    match Service.cache_stats srv with
    | Some s ->
      let lookups = s.Rserver.Query_cache.hits + s.Rserver.Query_cache.misses in
      if lookups = 0 then 0.
      else float_of_int s.Rserver.Query_cache.hits /. float_of_int lookups
    | None -> 0.
  in
  Service.stop srv;
  let total = clients * per_client in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  let p50 = percentile sorted 0.50
  and p95 = percentile sorted 0.95
  and p99 = percentile sorted 0.99 in
  let busy_rate = float_of_int (Atomic.get busy) /. float_of_int total in
  let throughput = float_of_int (Atomic.get ok) /. elapsed in
  let read_rps = float_of_int (Atomic.get read_ok) /. elapsed in
  json_rows :=
    Printf.sprintf
      {|    {"mode": "%s", "domains": %d, "workers": %d, "commit_groups": %d, "cache_mb": %d, "mix": "%s", "clients": %d, "requests": %d, "ok": %d, "err": %d, "busy": %d, "busy_rate": %.4f, "elapsed_s": %.4f, "throughput_rps": %.1f, "read_rps": %.1f, "cache_hit_rate": %.4f, "p50_us": %.1f, "p95_us": %.1f, "p99_us": %.1f}|}
      mode_name domains workers
      (Service.resolved_commit_groups cfg)
      cache_mb mix_name clients total (Atomic.get ok)
      (Atomic.get err) (Atomic.get busy) busy_rate elapsed throughput read_rps
      hit_rate (p50 *. 1e6) (p95 *. 1e6) (p99 *. 1e6)
    :: !json_rows;
  results :=
    { mode = mode_name; clients; mix = mix_name; cache_mb; throughput;
      p50_us = p50 *. 1e6; busy_rate }
    :: !results;
  [
    mode_name;
    (if cache_mb = 0 then "off" else Printf.sprintf "%dMB" cache_mb);
    mix_name;
    Report.fint clients;
    Report.fint (Atomic.get ok);
    Printf.sprintf "%.1f%%" (busy_rate *. 100.);
    Printf.sprintf "%.0f/s" throughput;
    (if cache_mb = 0 then "-" else Printf.sprintf "%.0f%%" (hit_rate *. 100.));
    Report.fns (p50 *. 1e9);
    Report.fns (p99 *. 1e9);
  ]

let find_level ~mode ~clients ~mix ~cache_mb =
  List.find_opt
    (fun l ->
      l.mode = mode && l.clients = clients && l.mix = mix
      && l.cache_mb = cache_mb)
    !results

let write_json path =
  let headline =
    (* The acceptance comparison: the full multicore read path (4 domains +
       cache) against the single-domain, uncached configuration, read-heavy
       mix, highest client count.  Also report the cache-free domain
       scaling ratio — on a single-core machine that one stays ~1. *)
    let at mode cache_mb = find_level ~mode ~clients:32 ~mix:"99/1" ~cache_mb in
    match (at "domains4" 64, at "domains4" 0, at "domains1" 0) with
    | Some fast, Some mid, Some base ->
      Printf.sprintf
        {|  "headline": {"comment": "32 clients, 99/1 read mix", "cores": %d, "domains4_cache_rps": %.1f, "domains4_nocache_rps": %.1f, "domains1_nocache_rps": %.1f, "read_path_speedup_x": %.2f, "domain_scaling_x": %.2f, "cache_p50_us": %.1f, "nocache_p50_us": %.1f, "cache_p50_improves": %b},|}
        (Domain.recommended_domain_count ())
        fast.throughput mid.throughput base.throughput
        (fast.throughput /. Float.max base.throughput 1e-9)
        (mid.throughput /. Float.max base.throughput 1e-9)
        fast.p50_us mid.p50_us
        (fast.p50_us <= mid.p50_us)
    | _ -> {|  "headline": {"error": "missing levels"},|}
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E14\",\n  \"mixes\": [\"90/10\", \"99/1\"],\n%s,\n%s\n\
    \  \"levels\": [\n%s\n  ]\n}\n"
    (* workers/domains/commit_groups vary per level and are embedded in
       every row; the meta knob records the fixed per-client load *)
    (Report.meta_json ~knobs:[ ("per_client", 60) ] ())
    headline
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  Report.note "wrote %s" path

let run () =
  Report.section
    "E14  Multicore read path: threads vs domains x cache off/on";
  let root = Rworkload.Xmark.generate ~seed:99 ~scale:2.0 in
  Report.note "document: XMark scale 2 (%d nodes); reads rotate over %d"
    (Rxml.Dom.size root) (Array.length read_queries);
  Report.note
    "mid-cost structural queries; updates INSERT <m> (each bumps the";
  Report.note
    "snapshot version, orphaning all cached entries of older versions).";
  Report.note "machine: %d recommended domains."
    (Domain.recommended_domain_count ());
  let per_client = 60 in
  let rows =
    List.concat_map
      (fun (mix_name, update_every) ->
        List.concat_map
          (fun mode ->
            List.concat_map
              (fun cache_mb ->
                List.map
                  (fun clients ->
                    run_level ~doc_name:"bench" ~root ~mode ~cache_mb
                      ~mix_name ~update_every ~clients ~per_client)
                  [ 2; 8; 32 ])
              [ 0; 64 ])
          [ `Threads; `Domains 1; `Domains 4 ])
      [ ("90/10", 10); ("99/1", 100) ]
  in
  Report.table
    [
      "mode"; "cache"; "mix"; "clients"; "ok"; "busy rate"; "throughput";
      "hit rate"; "p50"; "p99";
    ]
    rows;
  Report.note
    "threads = 4 systhread workers in one domain (the PR-3 path);";
  Report.note
    "domainsN = N executor domains for QUERY/COUNT/CHECK, writes stay on";
  Report.note
    "the main domain.  Version-keyed caching: a hit can never be stale,";
  Report.note
    "and on a single-core runner the cache, not domain parallelism, is";
  Report.note "what lifts read throughput (see the headline object).";
  write_json "BENCH_parallel.json"
