(* E19 — Commit pipelines: write scaling across document groups.

   E15 measured one pipeline's batching; this sweep measures how many
   pipelines pay off.  The server hosts 8 documents which hash over the
   configured commit groups; closed-loop clients pin themselves to a
   document round-robin and drive a 50/50 UPDATE/COUNT mix against it.
   With --commit-groups 1 every update funnels through a single commit
   queue and fsync cadence — the PR-5 global write path.  With 4
   groups, documents in different groups commit, fsync and publish
   concurrently; per-document ordering is untouched because a document
   never changes groups.

   The headline compares 32-client 50/50 update throughput at 4 groups
   against 1 group.  On a single-core runner the ratio hovers near 1
   (the pipelines time-slice one CPU and one disk); the CI `multicore`
   job runs this on a multi-core box and gates groups-4 >= groups-1.

   Raw rows and the headline go to BENCH_commit.json. *)

module Service = Rserver.Service
module Client = Rserver.Client
module Protocol = Rserver.Protocol

let json_rows : string list ref = ref []

type level = {
  groups : int;
  clients : int;
  update_rps : float;
  p50_us : float;
}

let results : level list ref = ref []

let workdir () = Report.workdir "e19"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let n_docs = 8

(* One level: a fresh server hosting [n_docs] documents with [groups]
   commit pipelines, [clients] closed-loop clients, [per_client] requests
   each at a 50/50 update/read mix.  Client k works document k mod
   [n_docs], so updates spread over every group the config provisions. *)
let run_level ~roots ~groups ~clients ~per_client =
  let tag = Printf.sprintf "g%d-c%d" groups clients in
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
      commit_max_batch = 64;
      commit_groups = groups;
      wal_segment_bytes = 0;
      plan_cache = 256;
      epoch = 1;
      upstream = None;
      poll_ms = 500;
    }
  in
  let docs =
    List.mapi
      (fun i root -> (Printf.sprintf "doc%d" i, Rxml.Dom.clone root))
      roots
  in
  let srv = Service.start cfg docs in
  let ok = Atomic.make 0 and err = Atomic.make 0 and busy = Atomic.make 0 in
  let update_ok = Atomic.make 0 in
  let lat_mu = Mutex.create () in
  let update_lat = ref [] in
  let client_body k () =
    let doc = Printf.sprintf "doc%d" (k mod n_docs) in
    let conn = Client.connect cfg.Service.socket_path in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    for i = 0 to per_client - 1 do
      let is_update = (i + k) mod 2 = 0 in
      let req =
        if is_update then
          Protocol.Update
            {
              doc;
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
      {|    {"commit_groups": %d, "docs": %d, "workers": %d, "domains": %d, "clients": %d, "requests": %d, "ok": %d, "err": %d, "busy": %d, "elapsed_s": %.4f, "throughput_rps": %.1f, "update_rps": %.1f, "update_p50_us": %.1f, "update_p99_us": %.1f, "wal_batches": %d, "wal_records": %d, "wal_mean_batch": %.2f, "leader_handoffs": %d, "publish_incremental": %d, "publish_full": %d}|}
      groups n_docs cfg.Service.workers cfg.Service.domains clients total
      (Atomic.get ok) (Atomic.get err) (Atomic.get busy) elapsed throughput
      update_rps (p50 *. 1e6) (p99 *. 1e6) (stat "wal_batches")
      (stat "wal_records")
      (statf "wal_mean_batch")
      (stat "leader_handoffs")
      (stat "publish_incremental")
      (stat "publish_full")
    :: !json_rows;
  results := { groups; clients; update_rps; p50_us = p50 *. 1e6 } :: !results;
  [
    Report.fint groups;
    Report.fint clients;
    Report.fint (Atomic.get ok);
    Report.fint (Atomic.get busy);
    Printf.sprintf "%.0f/s" update_rps;
    Printf.sprintf "%.2f" (statf "wal_mean_batch");
    Report.fint (stat "leader_handoffs");
    Report.fns (p50 *. 1e9);
    Report.fns (p99 *. 1e9);
  ]

let find_level ~groups ~clients =
  List.find_opt (fun l -> l.groups = groups && l.clients = clients) !results

let write_json path =
  let headline =
    (* The acceptance comparison: 4 independent pipelines against the
       single-mutex configuration at the highest write pressure. *)
    match (find_level ~groups:4 ~clients:32, find_level ~groups:1 ~clients:32)
    with
    | Some g4, Some g1 ->
      Printf.sprintf
        {|  "headline": {"comment": "32 clients, 50/50 update mix over 8 documents", "cores": %d, "groups4_update_rps": %.1f, "groups1_update_rps": %.1f, "group_scaling_x": %.2f, "groups4_p50_us": %.1f, "groups1_p50_us": %.1f},|}
        (Domain.recommended_domain_count ())
        g4.update_rps g1.update_rps
        (g4.update_rps /. Float.max g1.update_rps 1e-9)
        g4.p50_us g1.p50_us
    | _ -> {|  "headline": {"error": "missing levels"},|}
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"experiment\": \"E19\",\n  \"mix\": \"50/50\",\n%s,\n%s\n\
    \  \"levels\": [\n%s\n  ]\n}\n"
    (Report.meta_json
       ~knobs:[ ("per_client", 60); ("docs", n_docs); ("domains", 0) ]
       ())
    headline
    (String.concat ",\n" (List.rev !json_rows));
  close_out oc;
  Report.note "wrote %s" path

let run () =
  Report.section "E19  Commit pipelines: write scaling across document groups";
  let roots =
    List.init n_docs (fun i ->
        Rworkload.Shape.generate ~seed:(190 + i) ~target:800
          (Rworkload.Shape.Uniform { fanout_lo = 1; fanout_hi = 4 }))
  in
  let per_client = 60 in
  Report.note "%d documents (~800 nodes each) hash over the commit groups;"
    n_docs;
  Report.note
    "client k pins document k mod %d, 50/50 INSERT <m> / COUNT //m;" n_docs;
  Report.note "machine: %d recommended domains."
    (Domain.recommended_domain_count ());
  let rows =
    List.concat_map
      (fun groups ->
        List.map
          (fun clients -> run_level ~roots ~groups ~clients ~per_client)
          [ 8; 32 ])
      [ 1; 2; 4 ]
  in
  Report.table
    [
      "groups"; "clients"; "ok"; "busy"; "update tput"; "mean batch";
      "handoffs"; "p50(upd)"; "p99(upd)";
    ]
    rows;
  Report.note
    "groups = independent commit pipelines (queue + write mutex + fsync";
  Report.note
    "cadence each); documents never change groups, so per-document";
  Report.note
    "ordering is identical at every setting — only the concurrency of";
  Report.note "unrelated documents' commits changes.";
  write_json "BENCH_commit.json"
