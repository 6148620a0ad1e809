(* E13 — The concurrent document service under offered load.

   An in-process server (small worker pool, small admission queue) hosts
   one synthetic document; N client threads each drive a closed loop of
   requests over its Unix socket — a 90% COUNT / 10% UPDATE mix — and
   time every round trip from the client side.  Sweeping N shows the
   three regimes the admission controller is built for: underload (no
   rejects, flat latency), saturation (queueing shows up in the tail),
   and overload (explicit BUSY instead of unbounded latency).

   Raw numbers go to BENCH_server.json; the CI server job uploads that
   file as an artifact. *)

module Service = Rserver.Service
module Client = Rserver.Client
module Protocol = Rserver.Protocol

let json_rows : string list ref = ref []

let workdir () = Report.workdir "e13"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* One offered-load level: a fresh server, [clients] closed-loop client
   threads, [per_client] requests each.  Request i is an UPDATE when
   [i mod 10 = 9], a COUNT otherwise. *)
let run_level ~doc_name ~root ~clients ~per_client ~workers ~max_queue =
  let tag = Printf.sprintf "c%d" clients in
  let cfg =
    {
      Service.socket_path = Filename.concat (workdir ()) (tag ^ ".sock");
      data_dir = Filename.concat (workdir ()) tag;
      workers;
      max_queue;
      deadline_ms = 0;
      max_area_size = 64;
      max_depth = 10_000;
      domains = 0;
      cache_mb = 0;
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
  let srv = Service.start cfg [ (doc_name, Rxml.Dom.clone root) ] in
  let ok = Atomic.make 0 and err = Atomic.make 0 and busy = Atomic.make 0 in
  let lat_mu = Mutex.create () in
  let latencies = ref [] in
  let client_body k () =
    let conn = Client.connect cfg.Service.socket_path in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    for i = 0 to per_client - 1 do
      let req =
        if i mod 10 = 9 then
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
      (match resp with
      | Protocol.Ok_ _ ->
        Atomic.incr ok;
        Mutex.lock lat_mu;
        latencies := dt :: !latencies;
        Mutex.unlock lat_mu
      | Protocol.Err _ -> Atomic.incr err
      | Protocol.Busy _ -> Atomic.incr busy)
    done;
    ignore k
  in
  let t0 = Unix.gettimeofday () in
  let threads = Array.init clients (fun k -> Thread.create (client_body k) ()) in
  Array.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  Service.stop srv;
  let total = clients * per_client in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  let p50 = percentile sorted 0.50
  and p95 = percentile sorted 0.95
  and p99 = percentile sorted 0.99 in
  let maxl = if Array.length sorted = 0 then 0. else sorted.(Array.length sorted - 1) in
  let busy_rate = float_of_int (Atomic.get busy) /. float_of_int total in
  let throughput = float_of_int (Atomic.get ok) /. elapsed in
  json_rows :=
    Printf.sprintf
      {|    {"clients": %d, "requests": %d, "ok": %d, "err": %d, "busy": %d, "busy_rate": %.4f, "elapsed_s": %.4f, "throughput_rps": %.1f, "p50_us": %.1f, "p95_us": %.1f, "p99_us": %.1f, "max_us": %.1f}|}
      clients total (Atomic.get ok) (Atomic.get err) (Atomic.get busy)
      busy_rate elapsed throughput (p50 *. 1e6) (p95 *. 1e6) (p99 *. 1e6)
      (maxl *. 1e6)
    :: !json_rows;
  [
    Report.fint clients;
    Report.fint total;
    Report.fint (Atomic.get ok);
    Report.fint (Atomic.get busy);
    Printf.sprintf "%.1f%%" (busy_rate *. 100.);
    Printf.sprintf "%.0f/s" throughput;
    Report.fns (p50 *. 1e9);
    Report.fns (p95 *. 1e9);
    Report.fns (p99 *. 1e9);
  ]

let write_json path =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E13\",\n  \"mix\": \"90%% COUNT / 10%% UPDATE\",\n\
    %s,\n  \"levels\": [\n%s\n  ]\n}\n"
    (Report.meta_json ())
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  Report.note "wrote %s" path

let run () =
  Report.section
    "E13  Concurrent service: throughput, tail latency, overload behaviour";
  let root =
    Rworkload.Shape.generate ~seed:131 ~target:2000
      (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 4 })
  in
  let workers = 2 and max_queue = 4 and per_client = 200 in
  Report.note "document: 2000 nodes; mix: 90%% COUNT //m, 10%% UPDATE INSERT;";
  Report.note
    "server: %d workers, admission queue %d (deliberately small so the"
    workers max_queue;
  Report.note "highest load level visibly rejects with BUSY).";
  let rows =
    List.map
      (fun clients ->
        run_level ~doc_name:"bench" ~root ~clients ~per_client ~workers
          ~max_queue)
      [ 2; 8; 32 ]
  in
  Report.table
    [
      "clients"; "offered"; "ok"; "busy"; "busy rate"; "throughput"; "p50";
      "p95"; "p99";
    ]
    rows;
  Report.note
    "reads never block on the writer (snapshot isolation): tail latency";
  Report.note
    "under load is queueing, and past the queue bound the service degrades";
  Report.note "by rejecting (BUSY) rather than by slowing everyone down.";
  write_json "BENCH_server.json"
