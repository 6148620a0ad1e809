(* E15 — Group-commit write path: batching on vs off under write load.

   The write pipeline acks an UPDATE only after its commit batch is
   fsynced and published, so a lone writer pays the same latency either
   way — the win appears when writers overlap.  This sweep drives
   closed-loop clients at a 10/90 and a 50/50 update/read mix, at
   2/8/32 clients, with group commit on (batch up to 64) and off
   (batch = 1, one fsync + one publication per update).  Workers are
   provisioned at clients + 1 so an UPDATE waiting on its batch's fsync
   never starves the reads that share the pool.

   With batching off, every update is its own journal append, fsync and
   snapshot publication (DOM clone + area replay).  With batching on,
   all updates queued during the in-flight fsync ride the next one:
   one append, one fsync, one publication for the whole batch.  The
   headline compares update throughput at 32 clients, 50/50 — the
   configuration where commit work, not client think time, is the
   bottleneck.

   Raw rows and the headline ratio go to BENCH_write.json; the CI
   `write` job gates on the ratio. *)

module Service = Rserver.Service
module Client = Rserver.Client
module Protocol = Rserver.Protocol

let json_rows : string list ref = ref []

type level = {
  batching : bool;
  clients : int;
  mix : string;
  update_rps : float;
  p50_us : float;
}

let results : level list ref = ref []

let workdir () = Report.workdir "e15"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* One level: a fresh server with group commit on or off, [clients]
   closed-loop clients, [per_client] requests each.  Request i is an
   UPDATE when [i mod period < updates_per_period], a COUNT otherwise. *)
let run_level ~doc_name ~root ~batching ~mix_name ~period ~updates_per_period
    ~clients ~per_client =
  let tag =
    Printf.sprintf "%s-c%d-%s"
      (if batching then "batched" else "unbatched")
      clients
      (String.map (fun c -> if c = '/' then '-' else c) mix_name)
  in
  let cfg =
    {
      Service.socket_path = Filename.concat (workdir ()) (tag ^ ".sock");
      data_dir = Filename.concat (workdir ()) tag;
      workers = clients + 1;
      max_queue = 0 (* default: 4 x pool *);
      deadline_ms = 0;
      max_area_size = 64;
      max_depth = 10_000;
      domains = 0;
      cache_mb = 0;
      commit_interval_us = 0;
      commit_max_batch = (if batching then 64 else 1);
      commit_groups = 1 (* one pipeline: this sweep isolates batching *);
      wal_segment_bytes = 0;
      plan_cache = 256;
      epoch = 1;
      upstream = None;
      poll_ms = 500;
    }
  in
  let srv = Service.start cfg [ (doc_name, Rxml.Dom.clone root) ] in
  let ok = Atomic.make 0 and err = Atomic.make 0 and busy = Atomic.make 0 in
  let update_ok = Atomic.make 0 in
  let lat_mu = Mutex.create () in
  let update_lat = ref [] in
  let client_body k () =
    let conn = Client.connect cfg.Service.socket_path in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    for i = 0 to per_client - 1 do
      let is_update = (i + k) mod period < updates_per_period in
      let req =
        if is_update then
          Protocol.Update
            {
              doc = doc_name;
              op = Rstorage.Wal.Insert { parent_rank = 0; pos = 0; tag = "m" };
            }
        else Protocol.Count "//m"
      in
      let t0 = Unix.gettimeofday () in
      let resp = Client.request conn req in
      let dt = Unix.gettimeofday () -. t0 in
      match resp with
      | Protocol.Ok_ _ ->
        Atomic.incr ok;
        if is_update then begin
          Atomic.incr update_ok;
          Mutex.lock lat_mu;
          update_lat := dt :: !update_lat;
          Mutex.unlock lat_mu
        end
      | Protocol.Err _ -> Atomic.incr err
      | Protocol.Busy _ -> Atomic.incr busy
    done
  in
  let t0 = Unix.gettimeofday () in
  let threads = Array.init clients (fun k -> Thread.create (client_body k) ()) in
  Array.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* batch-size and flush gauges straight from the server's own STATS *)
  let stats_body =
    Client.with_connection cfg.Service.socket_path @@ fun c ->
    match Client.request c Protocol.Stats with
    | Protocol.Ok_ body -> body
    | _ -> ""
  in
  let stat key = Option.value ~default:0 (Client.kv_int stats_body key) in
  let statf key =
    match Client.kv stats_body key with
    | Some s -> ( try float_of_string s with _ -> 0.)
    | None -> 0.
  in
  Service.stop srv;
  let total = clients * per_client in
  let sorted = Array.of_list !update_lat in
  Array.sort compare sorted;
  let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
  let update_rps = float_of_int (Atomic.get update_ok) /. elapsed in
  let throughput = float_of_int (Atomic.get ok) /. elapsed in
  json_rows :=
    Printf.sprintf
      {|    {"batching": %b, "mix": "%s", "clients": %d, "requests": %d, "ok": %d, "err": %d, "busy": %d, "elapsed_s": %.4f, "throughput_rps": %.1f, "update_rps": %.1f, "update_p50_us": %.1f, "update_p99_us": %.1f, "wal_batches": %d, "wal_records": %d, "wal_max_batch": %d, "wal_mean_batch": %.2f, "wal_flush_ms": %.3f, "publish_incremental": %d, "publish_full": %d, "areas_rebuilt": %d}|}
      batching mix_name clients total (Atomic.get ok) (Atomic.get err)
      (Atomic.get busy) elapsed throughput update_rps (p50 *. 1e6) (p99 *. 1e6)
      (stat "wal_batches") (stat "wal_records") (stat "wal_max_batch")
      (statf "wal_mean_batch") (statf "wal_flush_ms")
      (stat "publish_incremental") (stat "publish_full")
      (stat "areas_rebuilt")
    :: !json_rows;
  results :=
    { batching; clients; mix = mix_name; update_rps; p50_us = p50 *. 1e6 }
    :: !results;
  [
    (if batching then "on" else "off");
    mix_name;
    Report.fint clients;
    Report.fint (Atomic.get ok);
    Report.fint (Atomic.get busy);
    Printf.sprintf "%.0f/s" update_rps;
    Printf.sprintf "%.2f" (statf "wal_mean_batch");
    Report.fint (stat "wal_max_batch");
    Report.fns (p50 *. 1e9);
    Report.fns (p99 *. 1e9);
  ]

let find_level ~batching ~clients ~mix =
  List.find_opt
    (fun l -> l.batching = batching && l.clients = clients && l.mix = mix)
    !results

let write_json path =
  let headline =
    (* The acceptance comparison: group commit on vs off at the highest
       write pressure — 32 clients, 50/50 mix. *)
    match
      ( find_level ~batching:true ~clients:32 ~mix:"50/50",
        find_level ~batching:false ~clients:32 ~mix:"50/50" )
    with
    | Some on, Some off ->
      Printf.sprintf
        {|  "headline": {"comment": "32 clients, 50/50 update mix", "batched_update_rps": %.1f, "unbatched_update_rps": %.1f, "batching_speedup_x": %.2f, "batched_p50_us": %.1f, "unbatched_p50_us": %.1f},|}
        on.update_rps off.update_rps
        (on.update_rps /. Float.max off.update_rps 1e-9)
        on.p50_us off.p50_us
    | _ -> {|  "headline": {"error": "missing levels"},|}
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E15\",\n  \"mixes\": [\"10/90\", \"50/50\"],\n%s,\n%s\n\
    \  \"levels\": [\n%s\n  ]\n}\n"
    (Report.meta_json
       ~knobs:
         [ ("per_client", 100); ("domains", 0); ("commit_groups", 1) ]
       ())
    headline
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  Report.note "wrote %s" path

let run () =
  Report.section "E15  Group commit: batched vs per-update fsync + publish";
  let root =
    Rworkload.Shape.generate ~seed:151 ~target:2000
      (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 4 })
  in
  let per_client = 100 in
  Report.note "document: %d nodes; updates INSERT <m>, reads COUNT //m;"
    (Rxml.Dom.size root);
  Report.note
    "workers = clients + 1 (an UPDATE holds its worker until the commit";
  Report.note
    "leader fsyncs + publishes its batch); batching off = --commit-batch 1.";
  let rows =
    List.concat_map
      (fun (mix_name, period, updates_per_period) ->
        List.concat_map
          (fun batching ->
            List.map
              (fun clients ->
                run_level ~doc_name:"bench" ~root ~batching ~mix_name ~period
                  ~updates_per_period ~clients ~per_client)
              [ 2; 8; 32 ])
          [ false; true ])
      [ ("10/90", 10, 1); ("50/50", 2, 1) ]
  in
  Report.table
    [
      "batching"; "mix"; "clients"; "ok"; "busy"; "update tput"; "mean batch";
      "max batch"; "p50(upd)"; "p99(upd)";
    ]
    rows;
  Report.note
    "with batching off every update is its own append + fsync + snapshot";
  Report.note
    "publication; with it on, all updates queued during the in-flight";
  Report.note
    "fsync share one append, one fsync and one publication — mean batch";
  Report.note "above 1 is exactly the coalescing the ack latency buys.";
  write_json "BENCH_write.json"
