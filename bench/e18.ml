(* E18 — The sharded collection tier: ingest throughput, scatter-gather
   latency and correctness, aggregate vs single-shard read throughput,
   and the rebalance pause.

   Topology: three bare shards plus a router, all in-process.  A fourth
   "monolith" shard hosting the whole corpus is the single-shard
   baseline the tier is compared against.

   Measurements:

   - {b ingest}: the corpus streams in over per-shard connections
     bucketed by the placement hash (exactly what [ruidtool ingest]
     does), in three stages so scatter latency can be sampled at three
     corpus sizes.  Reported as docs/s and MB/s.
   - {b scatter}: router COUNT latency (p50/p99) at each corpus size,
     and the correctness identity — the router's total must equal the
     sum of the per-shard totals asked directly.
   - {b read mix}: a 50/50 COUNTD/QUERYD mix over random documents, run
     (a) against the monolith, (b) through the router, and (c) directly
     against the three shards in parallel (the aggregate capacity of
     the tier; what sharding buys once shards sit on separate cores or
     machines).  On a single-core box the aggregate is contended — the
     cores field in the meta records the seat the numbers were taken
     from.
   - {b rebalance}: one document moves between shards while a scatter
     loop runs; the reply's measured write-pause is reported, and the
     moved document's QUERYD answer must be byte-identical (modulo the
     snapshot version) before and after.

   Raw numbers go to BENCH_collection.json; the CI collection job
   uploads that file as an artifact. *)

module Service = Rserver.Service
module Router = Rserver.Router
module Shard_map = Rserver.Shard_map
module Client = Rserver.Client
module Protocol = Rserver.Protocol

let workdir () = Report.workdir "e18"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let shard_config tag =
  {
    Service.socket_path = Filename.concat (workdir ()) (tag ^ ".sock");
    data_dir = Filename.concat (workdir ()) tag;
    workers = 2;
    max_queue = 32;
    deadline_ms = 0;
    max_area_size = 16;
    max_depth = 10_000;
    domains = 0;
    cache_mb = 0;
    commit_interval_us = 0;
    commit_max_batch = 64;
    commit_groups = 1;
    wal_segment_bytes = 0;
    plan_cache = 64;
    epoch = 1;
    upstream = None;
    poll_ms = 500;
  }

let shards = 3
let n_docs = 240
let stages = [ 80; 160; 240 ]

let doc_name i = Printf.sprintf "d%04d" i

let corpus =
  lazy
    (Array.init n_docs (fun i ->
         let root =
           Rworkload.Shape.generate ~seed:(1800 + i)
             ~tags:[| "item"; "name"; "desc"; "price" |]
             ~target:(30 + (i mod 5 * 10))
             (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 4 })
         in
         (doc_name i, Rxml.Serializer.to_string root)))

let ok_or_die what = function
  | Protocol.Ok_ body -> body
  | r -> failwith (what ^ ": " ^ Protocol.response_to_string r)

let request_on sock req =
  Client.with_connection sock (fun c -> Client.request c req)

(* Stream [docs] into the tier over one connection per shard, bucketed by
   the placement hash — the [ruidtool ingest] fast path in miniature. *)
let ingest_direct shard_socks docs =
  let buckets = Array.make (Array.length shard_socks) [] in
  Array.iter
    (fun (name, xml) ->
      let s = Shard_map.hash ~shards:(Array.length shard_socks) name in
      buckets.(s) <- (name, xml) :: buckets.(s))
    docs;
  let threads =
    Array.mapi
      (fun s bucket ->
        Thread.create
          (fun () ->
            Client.with_connection shard_socks.(s) @@ fun c ->
            List.iter
              (fun (name, xml) ->
                ignore
                  (ok_or_die ("ADDDOC " ^ name)
                     (Client.request c (Protocol.Add_doc { doc = name; xml }))))
              (List.rev bucket))
          ())
      buckets
  in
  Array.iter Thread.join threads

let scatter_latency router_sock reps =
  Client.with_connection router_sock @@ fun c ->
  let samples =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (ok_or_die "COUNT" (Client.request c (Protocol.Count "//item")));
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare samples;
  (percentile samples 0.50 *. 1e3, percentile samples 0.99 *. 1e3)

(* A 50/50 COUNTD/QUERYD mix over random documents through [sock],
   [clients] threads, [per_client] requests each.  Returns requests/s. *)
let read_mix sock ~clients ~per_client =
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun ci ->
        Thread.create
          (fun () ->
            Client.with_connection sock @@ fun c ->
            for i = 0 to per_client - 1 do
              let name = doc_name ((ci * 7919 + i * 31) mod n_docs) in
              let req =
                if i land 1 = 0 then
                  Protocol.Count_doc { doc = name; xpath = "//price" }
                else Protocol.Query_doc { doc = name; xpath = "//name" }
              in
              ignore (ok_or_die "read mix" (Client.request c req))
            done)
          ())
  in
  List.iter Thread.join threads;
  float_of_int (clients * per_client) /. (Unix.gettimeofday () -. t0)

let strip_version body =
  String.split_on_char ' ' body
  |> List.filter (fun tok ->
         not (String.length tok > 2 && String.sub tok 0 2 = "v="))
  |> String.concat " "

let run () =
  Report.section
    "E18  Collection tier: ingest, scatter-gather, aggregate reads, rebalance";
  let corpus = Lazy.force corpus in
  let bytes_total =
    Array.fold_left (fun acc (_, xml) -> acc + String.length xml) 0 corpus
  in
  let mb_total = float_of_int bytes_total /. 1048576. in

  (* --- the tier: 3 bare shards + router ----------------------------- *)
  let scfgs = Array.init shards (fun i -> shard_config (Printf.sprintf "e18s%d" i)) in
  let shard_socks = Array.map (fun c -> c.Service.socket_path) scfgs in
  let srvs = Array.map (fun c -> Service.start c []) scfgs in
  let rcfg =
    Router.default_config
      ~socket_path:(Filename.concat (workdir ()) "e18r.sock")
      ~shard_sockets:shard_socks ()
  in
  let router = Router.start rcfg in

  (* --- staged ingest, scatter latency at each corpus size ----------- *)
  let ingest_clock = ref 0. in
  let scatter_points =
    List.map
      (fun upto ->
        let from = match List.filter (fun s -> s < upto) stages with
          | [] -> 0
          | smaller -> List.fold_left max 0 smaller
        in
        let t0 = Unix.gettimeofday () in
        ingest_direct shard_socks (Array.sub corpus from (upto - from));
        ingest_clock := !ingest_clock +. (Unix.gettimeofday () -. t0);
        let p50, p99 = scatter_latency rcfg.Router.socket_path 40 in
        (upto, p50, p99))
      stages
  in
  (* scatter sampling time excluded: charge only the ADDDOC streaming *)
  let ingest_s = !ingest_clock in
  let docs_per_s = float_of_int n_docs /. ingest_s in
  let mb_per_s = mb_total /. ingest_s in

  (* --- scatter correctness: total == sum of shard totals ------------ *)
  let router_total =
    let body =
      ok_or_die "COUNT" (request_on rcfg.Router.socket_path (Protocol.Count "//item"))
    in
    match Client.kv_int body "total" with Some t -> t | None -> -1
  in
  let shard_sum =
    Array.fold_left
      (fun acc sock ->
        let body = ok_or_die "COUNT" (request_on sock (Protocol.Count "//item")) in
        acc + match Client.kv_int body "total" with Some t -> t | None -> 0)
      0 shard_socks
  in
  if router_total <> shard_sum then
    failwith
      (Printf.sprintf "E18 scatter mismatch: router %d vs shard sum %d"
         router_total shard_sum);

  (* --- read mix: monolith vs router vs direct aggregate ------------- *)
  let mcfg = shard_config "e18mono" in
  let mono = Service.start mcfg [] in
  ingest_direct [| mcfg.Service.socket_path |] corpus;
  let clients = 3 and per_client = 400 in
  let mono_rps = read_mix mcfg.Service.socket_path ~clients ~per_client in
  let router_rps = read_mix rcfg.Router.socket_path ~clients ~per_client in
  (* direct aggregate: each client speaks to one shard, asking only for
     documents that shard hosts *)
  let aggregate_rps =
    let t0 = Unix.gettimeofday () in
    let counts = Array.make shards 0 in
    let threads =
      List.init shards (fun s ->
          Thread.create
            (fun () ->
              Client.with_connection shard_socks.(s) @@ fun c ->
              let sent = ref 0 in
              let i = ref 0 in
              while !sent < per_client do
                let name = doc_name (!i mod n_docs) in
                incr i;
                if Shard_map.hash ~shards name = s then begin
                  incr sent;
                  let req =
                    if !sent land 1 = 0 then
                      Protocol.Count_doc { doc = name; xpath = "//price" }
                    else Protocol.Query_doc { doc = name; xpath = "//name" }
                  in
                  ignore
                    (ok_or_die "aggregate mix" (Client.request c req))
                end
              done;
              counts.(s) <- !sent)
            ())
    in
    List.iter Thread.join threads;
    float_of_int (Array.fold_left ( + ) 0 counts)
    /. (Unix.gettimeofday () -. t0)
  in
  Service.stop mono;
  let speedup = aggregate_rps /. mono_rps in

  (* --- rebalance under traffic -------------------------------------- *)
  let victim = doc_name 0 in
  let home = Shard_map.hash ~shards victim in
  let target = (home + 1) mod shards in
  let stop_traffic = Atomic.make false in
  let traffic =
    Thread.create
      (fun () ->
        Client.with_connection rcfg.Router.socket_path @@ fun c ->
        while not (Atomic.get stop_traffic) do
          ignore (Client.request c (Protocol.Count "//price"))
        done)
      ()
  in
  let before =
    strip_version
      (ok_or_die "QUERYD"
         (request_on rcfg.Router.socket_path
            (Protocol.Query_doc { doc = victim; xpath = "//item" })))
  in
  let body =
    ok_or_die "REBALANCE"
      (request_on rcfg.Router.socket_path
         (Protocol.Rebalance { doc = victim; target }))
  in
  let pause_ms =
    match Client.kv body "pause_ms" with
    | Some s -> float_of_string s
    | None -> failwith "REBALANCE reply lacks pause_ms="
  in
  let after =
    strip_version
      (ok_or_die "QUERYD"
         (request_on rcfg.Router.socket_path
            (Protocol.Query_doc { doc = victim; xpath = "//item" })))
  in
  Atomic.set stop_traffic true;
  Thread.join traffic;
  if before <> after then
    failwith "E18 rebalance changed the document's QUERYD answer";

  Router.stop router;
  Array.iter Service.stop srvs;

  Report.table
    [ "metric"; "value" ]
    ([
       [ "corpus"; Printf.sprintf "%d docs, %.2f MB" n_docs mb_total ];
       [ "ingest"; Printf.sprintf "%.0f docs/s, %.2f MB/s" docs_per_s mb_per_s ];
     ]
    @ List.map
        (fun (upto, p50, p99) ->
          [ Printf.sprintf "scatter COUNT @%d docs" upto;
            Printf.sprintf "p50 %.2f ms, p99 %.2f ms" p50 p99 ])
        scatter_points
    @ [
        [ "scatter identity";
          Printf.sprintf "router %d == shard sum %d" router_total shard_sum ];
        [ "read mix, monolith"; Printf.sprintf "%.0f req/s" mono_rps ];
        [ "read mix, via router"; Printf.sprintf "%.0f req/s" router_rps ];
        [ "read mix, direct aggregate"; Printf.sprintf "%.0f req/s" aggregate_rps ];
        [ "aggregate / monolith"; Printf.sprintf "%.2fx" speedup ];
        [ "rebalance pause"; Printf.sprintf "%.1f ms" pause_ms ];
      ]);
  Report.note
    "aggregate = three clients on three shards in parallel; on a single-core";
  Report.note
    "seat (see meta.cores) all shards contend for the same CPU, so the";
  Report.note
    "speedup reflects the protocol floor, not the tier's scaling ceiling.";
  let oc = open_out "BENCH_collection.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"E18\",\n\
     %s,\n\
    \  \"ingest\": {\"docs\": %d, \"mb\": %.3f, \"seconds\": %.3f, \
     \"docs_per_s\": %.1f, \"mb_per_s\": %.3f},\n\
    \  \"scatter\": {\"identity\": {\"router_total\": %d, \"shard_sum\": %d}, \
     \"latency\": [%s]},\n\
    \  \"read_mix\": {\"monolith_rps\": %.1f, \"router_rps\": %.1f, \
     \"aggregate_rps\": %.1f, \"aggregate_over_monolith\": %.3f},\n\
    \  \"rebalance\": {\"pause_ms\": %.2f}\n\
     }\n"
    (Report.meta_json ()) n_docs mb_total ingest_s docs_per_s mb_per_s
    router_total shard_sum
    (String.concat ", "
       (List.map
          (fun (upto, p50, p99) ->
            Printf.sprintf
              "{\"docs\": %d, \"p50_ms\": %.3f, \"p99_ms\": %.3f}" upto p50 p99)
          scatter_points))
    mono_rps router_rps aggregate_rps speedup pause_ms;
  close_out oc;
  Report.note "wrote BENCH_collection.json"
